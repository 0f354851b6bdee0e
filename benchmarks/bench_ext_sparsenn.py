"""EXT-SNN — sparse-DNN inference scaling (future-work extension).

Not a paper figure: §VI names sparse-NN inference ([47]/[48]) as the
next workload for the runtime, so this bench records its scaling
behaviour on the same virtual-time machine used for Fig. 6/9
(:func:`repro.figures.ext_snn_table`).  The expected shape (from ref
[48]): throughput scales with GPUs (weight shards are independent),
CPUs contribute only dispatch, and block pipelining hides the
layer-chain latency.
"""

import numpy as np

from repro.apps.sparsenn import build_inference_flow
from repro.apps.sparsenn.flow import reference_categories
from repro.core import Executor
from repro.figures import ext_snn_table

from conftest import record_table


def test_ext_snn_scaling(benchmark):
    table = benchmark.pedantic(ext_snn_table, rounds=1, iterations=1)
    record_table(*table)
    res = {(c, g): seconds for c, g, seconds in table.rows}
    # GPU-bound scaling: GPUs help superlinearly vs CPUs
    assert res[(4, 4)] < res[(4, 2)] < res[(4, 1)]
    assert res[(4, 2)] / res[(4, 4)] > 1.5
    # extra CPUs beyond dispatch needs buy ~nothing
    assert res[(8, 4)] / res[(40, 4)] < 1.15


def test_ext_snn_functional_latency(benchmark):
    """Wall-clock latency of a real inference on the threaded runtime."""
    flow = build_inference_flow(
        width=48, num_layers=6, batch_size=24, num_blocks=4, num_shards=2
    )
    with Executor(2, 2) as ex:
        benchmark.pedantic(
            lambda: ex.run(flow.graph).result(), rounds=3, iterations=1
        )
    assert np.array_equal(flow.categories, reference_categories(flow))
