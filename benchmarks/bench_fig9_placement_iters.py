"""FIG9b — detailed-placement runtime vs problem size (iterations).

The lower half of Fig. 9: runtime against the iteration count used to
flatten the task graph (:func:`repro.figures.fig9b_table`).  Paper
anchors: 5 iterations under 4 GPUs run in 6.35s with 1 core and 1.44s
with 40 cores.
"""

import pytest

from repro.figures import fig9b_table

from conftest import record_table

ITER_COUNTS = (5, 10, 20, 30, 40, 50)
HW_POINTS = ((1, 4), (8, 4), (40, 4))


def test_fig9_iterations_sweep(benchmark):
    table = benchmark.pedantic(fig9b_table, rounds=1, iterations=1)
    record_table(*table)
    res = {(i, c, g): seconds for i, c, g, seconds, _paper in table.rows}

    # anchors
    assert res[(5, 1, 4)] == pytest.approx(6.35, rel=0.15)
    assert res[(5, 40, 4)] == pytest.approx(1.44, rel=0.20)
    # runtime ~linear in iterations (dependency chain between iterations)
    for c, g in HW_POINTS:
        series = [res[(i, c, g)] for i in ITER_COUNTS]
        assert all(b > a for a, b in zip(series, series[1:]))
        assert 8 < series[-1] / series[0] < 12  # 10x iterations -> ~10x
    # cores help at every size
    for i in ITER_COUNTS:
        assert res[(i, 40, 4)] < res[(i, 8, 4)] < res[(i, 1, 4)]
