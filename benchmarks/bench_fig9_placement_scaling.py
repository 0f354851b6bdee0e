"""FIG9a — detailed-placement runtime vs CPU cores x GPUs (bigblue4).

The upper plots of Fig. 9: the 50-iteration flattened placement graph
with bigblue4-calibrated costs, swept over cores and GPUs
(:func:`repro.figures.fig9a_table`).  Key paper claims: 58.41s @
(1 core, 1 GPU) vs 14.02s @ (40, 1); concurrency saturates around 20
cores; 4 GPUs buy almost nothing (13.61s vs 14.02s) because the
workload has one GPU placement group.
"""

import pytest

from repro.apps.placement import build_placement_flow
from repro.core.placement import DevicePlacement
from repro.figures import fig9a_table

from conftest import record_table

CORES = (1, 8, 16, 20, 24, 32, 40)
GPUS = (1, 4)


def test_fig9_scaling_grid(benchmark):
    table = benchmark.pedantic(fig9a_table, rounds=1, iterations=1)
    record_table(*table)
    grid = {(c, g): seconds for c, g, seconds, _paper in table.rows}

    # anchors
    assert grid[(1, 1)] == pytest.approx(58.41, rel=0.15)
    assert grid[(40, 1)] == pytest.approx(14.02, rel=0.20)
    assert grid[(40, 4)] == pytest.approx(13.61, rel=0.20)
    # saturation: most of the gain arrives by 20 cores
    assert grid[(1, 1)] / grid[(20, 1)] > 3.0
    assert grid[(20, 1)] / grid[(40, 1)] < 1.25
    # GPUs barely help
    for c in CORES:
        assert grid[(c, 1)] / grid[(c, 4)] < 1.1
    # monotone in cores
    for g in GPUS:
        series = [grid[(c, g)] for c in CORES]
        assert all(b <= a + 0.25 for a, b in zip(series, series[1:]))


def test_fig9_single_gpu_group(benchmark):
    """Structural check behind the no-multi-GPU-gain claim: Algorithm 1
    packs the whole flow into one placement group."""
    flow = build_placement_flow(num_cells=40, iterations=50, num_matchers=32, window_size=1)
    res = benchmark(lambda: DevicePlacement().place(flow.graph.nodes, 4))
    assert res.num_groups == 1
    busy = [l for l in res.loads if l > 0]
    assert len(busy) == 1
