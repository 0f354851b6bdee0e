"""The sparse-inference task graph (extension EXT-SNN).

Graph shape (per ref [47]'s pipeline decomposition):

- the input batch splits into ``num_blocks`` column blocks;
- blocks are assigned round-robin to ``num_shards`` device shards;
  each shard gets its **own** pulls of every layer's CSR arrays
  (weights replicated per shard, the standard multi-GPU inference
  layout), so Algorithm 1 forms one placement group per shard and
  spreads shards across GPUs;
- per (block, layer): one fused SpMM+bias+ReLU kernel; activations
  ping-pong between two device buffers and never leave the GPU until
  the final readout;
- per block: an argmax readout kernel, a push of the winning-neuron
  indices, and a host task folding them into the result;
- a final host task assembles the category vector.

The per-(block, layer) kernels of one block form a chain, and chains
pipeline: block 0 can be at layer 5 while block 3 is still at layer 0
— exactly the overlap structure the reference exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.apps.sparsenn.kernels import argmax_readout_kernel, spmm_bias_relu_kernel
from repro.apps.sparsenn.model import SparseMlp, generate_batch, generate_sparse_mlp
from repro.core.heteroflow import Heteroflow
from repro.sim.cost import CostModel
from repro.utils.rng import derive_seed

#: virtual cost of one fused layer kernel, seconds per (nnz * column)
KERNEL_SECONDS_PER_NNZ_COL = 2.0e-9
#: host-side cost constants for the sim annotation
HOST_FOLD_SECONDS = 0.01
HOST_ASSEMBLE_SECONDS = 0.05


@dataclass
class SparseInferenceFlow:
    """A built inference flow plus its runtime state."""

    graph: Heteroflow
    cost_model: CostModel
    model: SparseMlp
    batch: np.ndarray
    num_blocks: int
    num_shards: int
    #: per-block winning-neuron indices (filled by fold tasks)
    block_categories: List[np.ndarray] = field(default_factory=list)
    #: final assembled categories (filled by the assemble task)
    categories: Optional[np.ndarray] = None

    @property
    def batch_size(self) -> int:
        return int(self.batch.shape[1])


def build_inference_flow(
    width: int = 64,
    num_layers: int = 6,
    batch_size: int = 32,
    *,
    num_blocks: int = 4,
    num_shards: int = 2,
    nnz_per_row: int = 8,
    seed: int = 0,
    model: Optional[SparseMlp] = None,
    paper_nnz_scale: float = 1.0,
) -> SparseInferenceFlow:
    """Construct the EXT-SNN inference graph.

    *paper_nnz_scale* multiplies the cost annotations so a small
    functional model can carry challenge-scale virtual costs.
    """
    if num_blocks < 1 or num_shards < 1:
        raise ValueError("blocks and shards must be positive")
    if batch_size < num_blocks:
        raise ValueError("need at least one column per block")
    mlp = model if model is not None else generate_sparse_mlp(
        width, num_layers, nnz_per_row, seed=derive_seed(seed, "model")
    )
    x = generate_batch(mlp.width, batch_size, seed=derive_seed(seed, "batch"))

    hf = Heteroflow(f"sparsenn-w{mlp.width}-l{mlp.num_layers}")
    cm = CostModel()
    flow = SparseInferenceFlow(
        graph=hf,
        cost_model=cm,
        model=mlp,
        batch=x,
        num_blocks=num_blocks,
        num_shards=min(num_shards, num_blocks),
    )

    # column ranges per block
    edges = np.linspace(0, batch_size, num_blocks + 1).astype(int)
    blocks = [(int(edges[i]), int(edges[i + 1])) for i in range(num_blocks)]

    # per-shard weight pulls (replicated CSR arrays per device shard)
    shard_weight_pulls: List[List[tuple]] = []
    for s in range(flow.num_shards):
        per_layer = []
        for l in range(mlp.num_layers):
            data, indices, indptr, bias = mlp.layer_arrays(l)
            p_data = hf.pull(data, name=f"w{l}_data_s{s}")
            p_idx = hf.pull(indices, name=f"w{l}_idx_s{s}")
            p_ptr = hf.pull(indptr, name=f"w{l}_ptr_s{s}")
            p_bias = hf.pull(bias, name=f"w{l}_bias_s{s}")
            nbytes = data.nbytes + indices.nbytes + indptr.nbytes + bias.nbytes
            for p, frac in ((p_data, 0.4), (p_idx, 0.4), (p_ptr, 0.1), (p_bias, 0.1)):
                cm.annotate_copy(p, nbytes * frac * paper_nnz_scale)
            per_layer.append((p_data, p_idx, p_ptr, p_bias))
        shard_weight_pulls.append(per_layer)

    assemble_parts: List = []
    flow.block_categories = [np.zeros(hi - lo, dtype=np.int64) for lo, hi in blocks]

    def make_fold(b: int, idx_host: np.ndarray):
        def fold() -> None:
            flow.block_categories[b][:] = idx_host

        return fold

    def assemble() -> None:
        flow.categories = np.concatenate(flow.block_categories)

    assemble_task = hf.host(assemble, name="assemble")
    cm.annotate_host(assemble_task, HOST_ASSEMBLE_SECONDS)

    for b, (lo, hi) in enumerate(blocks):
        shard = b % flow.num_shards
        bw = hi - lo
        x_block = np.ascontiguousarray(x[:, lo:hi].reshape(-1))
        scratch = np.zeros(mlp.width * bw)
        pull_a = hf.pull(x_block, name=f"act_a_b{b}")
        pull_b = hf.pull(scratch, name=f"act_b_b{b}")
        cm.annotate_copy(pull_a, x_block.nbytes * paper_nnz_scale)
        cm.annotate_copy(pull_b, scratch.nbytes * paper_nnz_scale)

        prev_kernel = None
        src, dst = pull_a, pull_b
        for l in range(mlp.num_layers):
            wd, wi, wp, wb = shard_weight_pulls[shard][l]
            k = hf.kernel(
                spmm_bias_relu_kernel,
                mlp.width,
                mlp.width,
                bw,
                wd,
                wi,
                wp,
                wb,
                src,
                dst,
                name=f"layer{l}_b{b}",
            ).block_x(256).grid_x(max((mlp.width + 255) // 256, 1))
            # shard weights are shared read-only by every block on the
            # shard; declaring that keeps concurrent blocks race-free
            # under hflint (HF011) while dst stays read-write
            k.reads(wd, wi, wp, wb, src)
            cm.annotate_kernel(
                k,
                KERNEL_SECONDS_PER_NNZ_COL * mlp.layers[l].nnz * bw * paper_nnz_scale,
            )
            k.succeed(wd, wi, wp, wb)
            if prev_kernel is None:
                k.succeed(src, dst)
            else:
                k.succeed(prev_kernel)
            prev_kernel = k
            src, dst = dst, src

        idx_host = np.zeros(bw, dtype=np.int64)
        pull_idx = hf.pull(idx_host, name=f"idx_b{b}")
        cm.annotate_copy(pull_idx, idx_host.nbytes)
        readout = hf.kernel(
            argmax_readout_kernel, mlp.width, bw, src, pull_idx, name=f"readout_b{b}"
        ).reads(src)
        cm.annotate_kernel(readout, 1e-4)
        readout.succeed(prev_kernel, pull_idx)
        push_idx = hf.push(pull_idx, idx_host, name=f"push_idx_b{b}")
        push_idx.succeed(readout)
        fold = hf.host(make_fold(b, idx_host), name=f"fold_b{b}")
        fold.succeed(push_idx)
        fold.precede(assemble_task)
        cm.annotate_host(fold, HOST_FOLD_SECONDS)
        assemble_parts.append(fold)

    return flow


def reference_categories(flow: SparseInferenceFlow) -> np.ndarray:
    """Host-only oracle: straight scipy inference over the full batch."""
    return flow.model.category_of(flow.batch)
