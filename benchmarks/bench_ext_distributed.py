"""EXT-DIST — distributed scheduler scaling (future-work extension).

Not a paper figure: §VI states "future work will focus on distributing
our scheduler based on [46]" (DtCraft).  This bench records how the
two evaluation workloads behave when their task graphs are partitioned
across cluster nodes (:func:`repro.figures.ext_dist_table` and
:func:`repro.figures.ext_dist_net_table`): the view-parallel timing
workload scales near-linearly, the iteration-chained placement
workload does not — distribution has the same structural limits as
intra-node scaling.
"""

from repro.figures import ext_dist_net_table, ext_dist_table

from conftest import record_table

NODES = (1, 2, 4, 8)


def test_ext_dist_scaling(benchmark):
    table = benchmark.pedantic(ext_dist_table, rounds=1, iterations=1)
    record_table(*table)
    sim_s, messages, cut_frac = {}, {}, {}
    for name, nn, seconds, _speedup, msgs, cut in table.rows:
        sim_s[(name, nn)], messages[(name, nn)], cut_frac[(name, nn)] = seconds, msgs, cut

    # 1 node: no messages, matches the local simulator exactly
    assert messages[("timing", 1)] == 0
    # timing scales: >= 2.8x at 4 nodes, >= 4.5x at 8
    t = {nn: sim_s[("timing", nn)] for nn in NODES}
    assert t[1] / t[4] > 2.8
    assert t[1] / t[8] > 4.5
    # placement is chain-bound: < 1.5x at 8 nodes
    p = {nn: sim_s[("placement", nn)] for nn in NODES}
    assert p[1] / p[8] < 1.5
    # partitioner keeps cuts modest on the parallel workload
    assert cut_frac[("timing", 8)] < 0.25


def test_ext_dist_network_sensitivity(benchmark):
    """Makespan degrades gracefully as the fabric slows down."""
    table = benchmark.pedantic(ext_dist_net_table, rounds=1, iterations=1)
    record_table(*table)
    ordered = [seconds for _bandwidth, seconds in table.rows]  # fastest fabric first
    assert ordered[0] <= ordered[1] <= ordered[2]
