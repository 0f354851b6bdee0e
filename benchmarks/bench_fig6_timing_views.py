"""FIG6b — timing-analysis runtime vs problem size (number of views).

The lower half of Fig. 6: runtime against 32/64/128/256/512/1024
views at fixed hardware points (:func:`repro.figures.fig6b_table`).
The paper's claim: "at any point, increasing the number of CPUs or
GPUs can all reduce the runtime", and runtime grows with the view
count.
"""

from repro.figures import fig6b_table

from conftest import record_table

VIEW_COUNTS = (32, 64, 128, 256, 512, 1024)
HW_POINTS = ((8, 1), (8, 4), (40, 1), (40, 4))


def test_fig6_views_sweep(benchmark):
    table = benchmark.pedantic(fig6b_table, rounds=1, iterations=1)
    record_table(*table)
    res = {(v, c, g): minutes for v, c, g, minutes in table.rows}

    # runtime grows with the view count at every hardware point
    for c, g in HW_POINTS:
        series = [res[(v, c, g)] for v in VIEW_COUNTS]
        assert all(b > a for a, b in zip(series, series[1:]))
    # near-linear growth at the largest machine (pipelined throughput)
    big = [res[(v, 40, 4)] for v in VIEW_COUNTS]
    assert 20 < big[-1] / big[0] < 40  # 32x more views -> ~32x time
    # more hardware helps at every size
    for v in VIEW_COUNTS:
        assert res[(v, 40, 4)] <= res[(v, 8, 4)] + 1e-9
        assert res[(v, 8, 4)] <= res[(v, 8, 1)] + 1e-9
