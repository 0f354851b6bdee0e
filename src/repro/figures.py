"""Every virtual-time evaluation table, defined once.

Each function sweeps one paper figure, ablation or extension on the
virtual-time model and returns a :class:`Table`; :func:`format_table`
is the one renderer.  ``python -m repro figures NAME`` prints a table,
and the ``benchmarks/bench_*`` modules record the same tables into
``benchmarks/results/NAME.txt`` and assert their shape claims on the
rows.  The wall-clock tables (ABL-POOL, EXT-CPPR, EXT-INC and the
TAB-* records) measure the threaded runtime and stay in their bench
modules.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

from repro._lazy import np
from repro.apps.placement import build_placement_flow
from repro.apps.sparsenn import build_inference_flow
from repro.apps.timing import build_timing_flow
from repro.apps.timing.views import FIG4_NODES, views_for_node
from repro.baselines.roundrobin import RoundRobinPlacement
from repro.core.heteroflow import Heteroflow
from repro.core.placement import DevicePlacement
from repro.dist import ClusterSpec, DistSimExecutor
from repro.sim import CostModel, MachineSpec, SimExecutor, paper_testbed


class Table(NamedTuple):
    """One rendered evaluation table: its rows hold the raw values."""

    title: str
    headers: Sequence[str]
    rows: List[Sequence]
    notes: str = ""


#: paper-quoted anchors, minutes (Fig. 6) and seconds (Fig. 9)
FIG6_PAPER = {
    (1, 1): 99, (1, 4): 51, (8, 4): 23, (16, 4): 18, (24, 4): 15,
    (32, 4): 14, (40, 4): 13, (40, 1): 36, (40, 2): 21, (40, 3): 15,
}
FIG9A_PAPER = {(1, 1): 58.41, (40, 1): 14.02, (40, 4): 13.61}
FIG9B_PAPER = {(5, 1, 4): 6.35, (5, 40, 4): 1.44}

#: the skewed GPU-group kernel costs of ABL-PLACE: heavy-tailed, the
#: regime where balance matters.  The two heavy groups sit 4 apart so
#: creation-order round-robin over 4 GPUs stacks them on the same bin
#: — the failure mode balanced packing is immune to (it packs
#: heaviest-first onto the least-loaded bin regardless of arrival order)
ABL_PLACE_GROUPS = [8.0, 1.0, 1.0, 1.0, 8.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5]


def _makespan(flow, cores: int, gpus: int) -> float:
    return SimExecutor(paper_testbed(cores, gpus), flow.cost_model).run(flow.graph).makespan


def _timing(num_views: int, num_gates: int = 60, paths_per_view: int = 8):
    return build_timing_flow(
        num_views=num_views, num_gates=num_gates, paths_per_view=paths_per_view
    )


def _placement(iterations: int, num_cells: int = 40):
    return build_placement_flow(
        num_cells=num_cells, iterations=iterations, num_matchers=32, window_size=1
    )


# -- paper figures ------------------------------------------------------
def fig4_table() -> Table:
    """Views vs technology node (paper Fig. 4)."""
    rows = []
    prev = None
    for node in sorted(FIG4_NODES, reverse=True):
        views = views_for_node(node)
        growth = "-" if prev is None else f"{views / prev:.2f}x"
        spec = FIG4_NODES[node]
        rows.append((f"{node}nm", spec["corners"], spec["modes"], views, growth))
        prev = views
    return Table(
        "FIG4: analysis views vs technology node",
        ("node", "corners", "modes", "views", "growth"),
        rows,
        "paper: views grow exponentially toward advanced nodes; "
        "1024 views at the 2 most advanced nodes motivates the Fig.6 workload",
    )


def fig6a_table(num_views: int = 1024) -> Table:
    """Timing runtime (minutes) vs cores x GPUs (paper Fig. 6 upper);
    a smaller *num_views* runs faster, with minutes scaled to 1024."""
    flow = _timing(num_views)
    scale = 1024 / num_views
    grid = {
        (c, g): _makespan(flow, c, g) / 60.0 * scale
        for c in (1, 8, 16, 24, 32, 40)
        for g in (1, 2, 3, 4)
    }
    rows = [(c, g, m, FIG6_PAPER.get((c, g), "")) for (c, g), m in grid.items()]
    views = "1024 views" if num_views == 1024 else f"{num_views} views scaled to 1024"
    return Table(
        f"FIG6a: timing runtime (minutes) vs cores x GPUs, netcard {views}",
        ("cores", "gpus", "sim_min", "paper_min"),
        rows,
        "shape claims: monotone in cores and GPUs; GPU scaling more "
        "remarkable per unit; 99min @ (1,1) -> 13min @ (40,4) is 7.7x in the "
        "paper, reproduced here as "
        f"{grid[(1, 1)] / grid[(40, 4)]:.1f}x. Mid-range CPU points run "
        "faster than the paper's (work-conserving simulator; see EXPERIMENTS.md).",
    )


def fig6a_aux_table() -> Table:
    """Per-unit speed-up of GPUs vs cores on the Fig. 6 workload ("the
    speed-up from multiple GPUs is more remarkable than CPUs")."""
    flow = _timing(1024)
    t_40x1, t_40x4, t_1x4 = (_makespan(flow, c, g) for c, g in ((40, 1), (40, 4), (1, 4)))
    return Table(
        "FIG6a-aux: per-unit speed-up",
        ("resource", "speedup", "units", "per-unit"),
        [
            ("GPUs 1->4 @40c", t_40x1 / t_40x4, 4, t_40x1 / t_40x4 / 4),
            ("cores 1->40 @4g", t_1x4 / t_40x4, 40, t_1x4 / t_40x4 / 40),
        ],
    )


def fig6b_table() -> Table:
    """Timing runtime (minutes) vs number of views (paper Fig. 6 lower)."""
    rows = []
    for views in (32, 64, 128, 256, 512, 1024):
        flow = _timing(views)
        for c, g in ((8, 1), (8, 4), (40, 1), (40, 4)):
            rows.append((views, c, g, _makespan(flow, c, g) / 60.0))
    return Table(
        "FIG6b: timing runtime (minutes) vs number of views",
        ("views", "cores", "gpus", "sim_min"),
        rows,
        "paper claim: runtime grows with views; at any size, more CPUs "
        "or GPUs reduce runtime",
    )


def fig9a_table() -> Table:
    """Placement runtime (seconds) vs cores x GPUs (paper Fig. 9 upper)."""
    flow = _placement(50)
    rows = [
        (c, g, _makespan(flow, c, g), FIG9A_PAPER.get((c, g), ""))
        for c in (1, 8, 16, 20, 24, 32, 40)
        for g in (1, 4)
    ]
    return Table(
        "FIG9a: placement runtime (seconds) vs cores x GPUs, bigblue4 50 iters",
        ("cores", "gpus", "sim_s", "paper_s"),
        rows,
        "claims: CPU scaling saturates ~20 cores; 1 GPU is enough",
    )


def fig9b_table() -> Table:
    """Placement runtime (seconds) vs iterations (paper Fig. 9 lower)."""
    rows = []
    for iters in (5, 10, 20, 30, 40, 50):
        flow = _placement(iters)
        for c, g in ((1, 4), (8, 4), (40, 4)):
            rows.append((iters, c, g, _makespan(flow, c, g), FIG9B_PAPER.get((iters, c, g), "")))
    return Table(
        "FIG9b: placement runtime (seconds) vs iterations",
        ("iters", "cores", "gpus", "sim_s", "paper_s"),
        rows,
        "paper: 6.35s @ (5 iters, 1 core) and 1.44s @ (5 iters, 40 cores); "
        "CPU cores reduce runtime at every size, GPUs do not",
    )


# -- ablations -----------------------------------------------------------
def abl_steal_table() -> Table:
    """Depth-first (work-stealing owner LIFO) vs breadth-first (one
    central FIFO queue) on the timing workload."""
    flow = _timing(128, num_gates=40, paths_per_view=4)
    rows = []
    for cores in (1, 2, 4):
        m = MachineSpec(cores, 1)
        lifo = SimExecutor(m, flow.cost_model).run(flow.graph).makespan
        fifo = SimExecutor(m, flow.cost_model, ready_policy="fifo").run(flow.graph).makespan
        rows.append((cores, lifo, fifo, fifo / lifo))
    return Table(
        "ABL-STEAL: depth-first (stealing) vs breadth-first (central queue)",
        ("cores", "lifo_s", "fifo_s", "fifo/lifo"),
        rows,
        "breadth-first drains all host tasks before any pull/kernel "
        "reaches the GPU; depth-first pipelines each view immediately",
    )


def abl_dedic_table() -> Table:
    """Uniform workers vs StarPU-style dedicated per-GPU workers."""
    rows = []
    flows = (
        ("timing", _timing(128, num_gates=40, paths_per_view=4)),
        ("placement", _placement(20)),
    )
    for name, flow in flows:
        for cores in (8, 16, 40):
            m = paper_testbed(cores, 4)
            uni, ded = (
                SimExecutor(m, flow.cost_model, dedicated_gpu_workers=dedicated)
                .run(flow.graph)
                .makespan
                for dedicated in (False, True)
            )
            rows.append((name, cores, uni, ded, ded / uni))
    return Table(
        "ABL-DEDIC: uniform vs dedicated GPU workers (4 GPUs)",
        ("workload", "cores", "uniform_s", "dedicated_s", "ded/uni"),
        rows,
        "dedicated mode reserves 4 of the cores for GPU dispatch only; "
        "the paper's uniform-worker design never idles them",
    )


def abl_place_table() -> Table:
    """Algorithm 1 vs round-robin device placement on skewed groups."""
    rows = []
    policies = (("algorithm-1", DevicePlacement()), ("round-robin", RoundRobinPlacement()))
    for name, placement in policies:
        hf = Heteroflow("skewed")
        cm = CostModel()
        for cost in ABL_PLACE_GROUPS:
            p = hf.pull(np.zeros(int(cost * 1000)))
            k = hf.kernel(lambda a: None, p)
            p.precede(k)
            cm.annotate_copy(p, cost * 1e6)
            cm.annotate_kernel(k, cost)
        rep = SimExecutor(MachineSpec(8, 4, kernel_slots=1), cm, placement=placement.place).run(hf)
        rows.append((name, rep.makespan, rep.placement.load_imbalance, max(rep.placement.loads)))
    return Table(
        "ABL-PLACE: Algorithm 1 vs round-robin placement (skewed groups)",
        ("policy", "makespan_s", "load_imbalance", "max_gpu_load"),
        rows,
        "balanced bin packing keeps the heavy groups apart; round-robin "
        "stacks them by arrival order",
    )


# -- extensions (paper §VI future work) ----------------------------------
def ext_dist_table() -> Table:
    """The evaluation workloads partitioned over 1-8 cluster nodes."""
    rows = []
    flows = (
        ("timing", _timing(256, num_gates=40, paths_per_view=4)),
        ("placement", _placement(20, num_cells=30)),
    )
    for name, flow in flows:
        reps = {
            nn: DistSimExecutor(ClusterSpec(nn, paper_testbed(10, 1)), flow.cost_model)
            .run(flow.graph)
            for nn in (1, 2, 4, 8)
        }
        for nn, rep in reps.items():
            rows.append((
                name, nn, rep.makespan, reps[1].makespan / rep.makespan,
                rep.messages, rep.partition.cut_fraction,
            ))
    return Table(
        "EXT-DIST: distributed scheduling over N nodes (10 cores + 1 GPU each)",
        ("workload", "nodes", "sim_s", "speedup", "messages", "cut_frac"),
        rows,
        "extension of paper SVI future work (DtCraft-based distribution); "
        "view-parallel timing scales, iteration-chained placement does not",
    )


def ext_dist_net_table() -> Table:
    """4-node timing makespan vs fabric bandwidth (200GbE, 25GbE, 1GbE)."""
    flow = _timing(256, num_gates=40, paths_per_view=4)
    rows = []
    for bw in (25e9, 3.1e9, 0.125e9):
        cluster = ClusterSpec(4, paper_testbed(10, 1), net_bandwidth=bw)
        rows.append((bw / 1e9, DistSimExecutor(cluster, flow.cost_model).run(flow.graph).makespan))
    return Table(
        "EXT-DIST-NET: 4-node timing makespan vs fabric bandwidth",
        ("bandwidth_GBps", "sim_s"),
        rows,
    )


def ext_snn_table() -> Table:
    """Sparse-DNN inference runtime vs cores x GPUs."""
    flow = build_inference_flow(
        width=64, num_layers=24, batch_size=64, num_blocks=16, num_shards=4,
        paper_nnz_scale=2e4,
    )
    points = ((1, 1), (4, 1), (4, 2), (4, 4), (8, 1), (8, 4), (40, 4))
    return Table(
        "EXT-SNN: sparse-DNN inference runtime (seconds) vs cores x GPUs",
        ("cores", "gpus", "sim_s"),
        [(c, g, _makespan(flow, c, g)) for c, g in points],
        "extension of paper SVI future work; shards scale with GPUs, "
        "CPUs only dispatch",
    )


#: every virtual-time table by its ``benchmarks/results`` name
ALL_FIGURES = {
    "fig4": fig4_table,
    "fig6a": fig6a_table,
    "fig6a-aux": fig6a_aux_table,
    "fig6b": fig6b_table,
    "fig9a": fig9a_table,
    "fig9b": fig9b_table,
    "abl-steal": abl_steal_table,
    "abl-dedic": abl_dedic_table,
    "abl-place": abl_place_table,
    "ext-dist": ext_dist_table,
    "ext-dist-net": ext_dist_net_table,
    "ext-snn": ext_snn_table,
}


def _cell(v) -> str:
    return f"{v:.2f}" if isinstance(v, float) else str(v)


def format_table(table: Table) -> str:
    """Render *table* as aligned text: every column right-aligned,
    floats at two decimals."""
    title, headers, rows, notes = table
    cells = [[_cell(v) for v in r] for r in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [f"== {title} =="]
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    if notes:
        lines.append(notes)
    return "\n".join(lines)
