"""ABL-PLACE — Algorithm 1 vs round-robin device placement.

The paper packs each kernel+pull group onto the GPU bin with minimum
load.  This ablation builds a skewed workload (a few heavy groups,
many light ones) and compares load imbalance and simulated makespan
against naive round-robin packing
(:func:`repro.figures.abl_place_table`).
"""

from repro.core import Heteroflow
from repro.core.placement import DevicePlacement
from repro.figures import abl_place_table

from conftest import record_table


def test_ablation_placement(benchmark):
    table = benchmark.pedantic(abl_place_table, rounds=1, iterations=1)
    record_table(*table)
    (_, balanced, balanced_imbalance, _), (_, rr, rr_imbalance, _) = table.rows

    assert balanced_imbalance <= rr_imbalance
    assert balanced <= rr + 1e-9
    # with this skew the gap is structural, not noise
    assert rr / balanced > 1.3


def test_ablation_placement_pass_cost(benchmark):
    """Placement itself is cheap: microbenchmark of Algorithm 1 over a
    thousand-group graph."""
    hf = Heteroflow()
    for _ in range(1000):
        p = hf.pull([0])
        hf.kernel(lambda a: None, p)
    placement = DevicePlacement()
    result = benchmark(lambda: placement.place(hf.nodes, 4))
    assert result.num_groups == 1000
