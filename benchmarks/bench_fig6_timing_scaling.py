"""FIG6a — timing-analysis runtime vs CPU cores x GPUs (netcard, 1024 views).

Rebuilds the paper's primary scaling study: the Fig.-5 correlation
graph over 1024 views with netcard-calibrated task costs, replayed on
the virtual-time machine at every (cores, gpus) point of Fig. 6's
upper plots (:func:`repro.figures.fig6a_table`).  Absolute numbers
come from the calibrated cost model; the assertions pin the *shape*
(see EXPERIMENTS.md for the paper-vs-measured discussion).
"""

import pytest

from repro.figures import fig6a_aux_table, fig6a_table

from conftest import record_table

CORES = (1, 8, 16, 24, 32, 40)
GPUS = (1, 2, 3, 4)


def test_fig6_full_grid(benchmark):
    table = benchmark.pedantic(fig6a_table, rounds=1, iterations=1)
    record_table(*table)
    grid = {(c, g): minutes for c, g, minutes, _paper in table.rows}

    # corner anchors within tolerance
    assert grid[(1, 1)] == pytest.approx(99, rel=0.15)
    assert grid[(1, 4)] == pytest.approx(51, rel=0.15)
    assert grid[(40, 1)] == pytest.approx(36, rel=0.25)
    # end-to-end speed-up severalfold (paper: 7.7x)
    assert 5 <= grid[(1, 1)] / grid[(40, 4)] <= 15
    # monotone along both axes
    for g in GPUS:
        series = [grid[(c, g)] for c in CORES]
        assert all(b <= a + 0.5 for a, b in zip(series, series[1:]))
    for c in CORES:
        series = [grid[(c, g)] for g in GPUS]
        assert all(b <= a + 0.5 for a, b in zip(series, series[1:]))


def test_fig6_gpu_speedup_dominates(benchmark):
    """Paper: 'speed-up from multiple GPUs is more remarkable than CPUs'."""
    table = benchmark.pedantic(fig6a_aux_table, rounds=1, iterations=1)
    record_table(*table)
    (_, _, _, per_gpu), (_, _, _, per_cpu) = table.rows
    assert per_gpu > per_cpu
