"""Multi-node discrete-event execution of Heteroflow graphs.

Each cluster node is one :class:`repro.sim.simulator.SimMachine`, the
same model :class:`~repro.sim.simulator.SimExecutor` runs: its free
workers serve one LIFO ready list (no per-worker deques, no
stealing), GPU ops go to per-slot streams and per-device kernel/copy
engines.  This module adds what is distributed: partitioning,
per-node device placement, and routing.  A dependency edge whose
endpoints live on different nodes pays a network message through the
producer node's egress NIC (a capacity-1 server), after which the
consumer's join counter decrements — the DtCraft-style stream-on-edge
execution model of the paper's ref [46].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.heteroflow import Heteroflow
from repro.core.node import Node, TaskType
from repro.core.placement import DevicePlacement
from repro.dist.cluster import ClusterSpec
from repro.dist.partition import GraphPartition, partition_graph
from repro.errors import SimulationError
from repro.sim.cost import CostModel
from repro.sim.events import EventQueue
from repro.sim.simulator import SimMachine, _Server


@dataclass
class DistSimReport:
    """Outcome of one distributed simulated run."""

    makespan: float
    num_tasks: int
    cluster: ClusterSpec
    partition: GraphPartition
    node_core_busy: List[float]
    node_gpu_busy: List[float]
    net_busy: List[float]
    messages: int = 0
    bytes_moved: float = 0.0

    @property
    def network_utilization(self) -> float:
        if self.makespan <= 0 or not self.net_busy:
            return 0.0
        return sum(self.net_busy) / (len(self.net_busy) * self.makespan)


class DistSimExecutor:
    """Schedules one graph over a :class:`ClusterSpec` in virtual time."""

    def __init__(
        self,
        cluster: ClusterSpec,
        cost_model: Optional[CostModel] = None,
        *,
        partition: Optional[GraphPartition] = None,
    ) -> None:
        self.cluster = cluster
        self.cost_model = cost_model or CostModel()
        self._fixed_partition = partition

    def run(self, graph: Heteroflow) -> DistSimReport:
        graph.validate()
        nodes = graph.nodes
        cluster = self.cluster
        m = cluster.node
        N = cluster.num_nodes
        cm = self.cost_model

        part = self._fixed_partition or partition_graph(nodes, N, cm)
        owner = part.assignment

        # per-node device placement over the node's local GPUs
        placer = DevicePlacement()
        for cn in range(N):
            placer.place([n for n in nodes if owner[n.nid] == cn], m.num_gpus)

        clock = EventQueue()
        join: Dict[int, int] = {n.nid: len(n.dependents) for n in nodes}
        done = 0
        net_busy = [0.0] * N
        messages = 0
        bytes_moved = 0.0
        nics = [_Server(1) for _ in range(N)]

        def message_bytes(node: Node) -> float:
            cost = cm.cost_of(node)
            if cost.copy_bytes > 0 and node.type in (TaskType.PULL, TaskType.PUSH):
                return cost.copy_bytes
            return cluster.default_message_bytes

        def release(succ: Node) -> None:
            join[succ.nid] -= 1
            if join[succ.nid] == 0:
                machines[owner[succ.nid]].ready(succ)

        def complete(node: Node) -> None:
            nonlocal done, messages, bytes_moved
            done += 1
            src_cn = owner[node.nid]
            remote: List[Node] = []
            for succ in node.successors:
                if owner[succ.nid] == src_cn:
                    release(succ)
                else:
                    remote.append(succ)
            if remote:
                nbytes = message_bytes(node)
                duration = cluster.transfer_seconds(nbytes)
                for succ in remote:
                    messages += 1
                    bytes_moved += nbytes
                    send(src_cn, duration, succ)

        def send(src_cn: int, duration: float, succ: Node) -> None:
            nic = nics[src_cn]

            def start() -> None:
                def finish() -> None:
                    net_busy[src_cn] += duration
                    nic.release()
                    release(succ)

                clock.schedule_after(duration, finish)

            nic.acquire(start)

        machines = [SimMachine(m, cm, clock, complete) for _ in range(N)]
        for n in nodes:
            if not n.dependents:
                machines[owner[n.nid]].ready(n)
        makespan = clock.run()
        if done != len(nodes):
            raise SimulationError(
                f"distributed simulation stalled: {done}/{len(nodes)} done"
            )
        return DistSimReport(
            makespan=makespan,
            num_tasks=len(nodes),
            cluster=cluster,
            partition=part,
            node_core_busy=[sum(sim.core_busy) for sim in machines],
            node_gpu_busy=[sum(sim.gpu_busy) for sim in machines],
            net_busy=net_busy,
            messages=messages,
            bytes_moved=bytes_moved,
        )
