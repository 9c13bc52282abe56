"""The benchmark's workloads: what each one runs and why.

This module is plain data, so the launcher and the catalogue can read it
without importing the program; ``harness.py`` builds the program from it.
Each ``why`` names the layers the workload loads and the ones it bypasses
(it is the ``why`` of ``BENCHMARK.json``).

The workload seed only generates inputs — the graph and the request
stream.  The store, trainer and engine always get the fixed
:data:`PROGRAM_SEED`, so the program receives nothing but the generated
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the seed the program itself is built with, for every workload seed
PROGRAM_SEED = 0

#: the served request stream: open-loop Poisson arrivals at a fixed
#: simulated rate per workload; 1500 requests leave 15 beyond the p99
SERVE_REQUESTS = 1500
#: items per served recsys list
TOP_K = 10


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its inputs and its program configuration."""

    name: str
    why: str
    dataset: dict
    store: dict
    trainer: dict
    #: iterations per timed training chunk (a truncated epoch)
    chunk_iterations: int
    #: simulated offered rate of the request stream, below saturation
    serve_rate_qps: float
    #: floor on the held-out link-prediction AUC after the warm-up epoch
    auc_floor: float | None = None

    @property
    def linkpred(self) -> bool:
        return self.trainer.get("task") == "linkpred"

    def examples_per_iteration(self, trainer) -> int:
        """Seed nodes per step, or positive pairs for link prediction."""
        return trainer.num_pairs if self.linkpred else trainer.batch_size


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-gat",
            why="2-layer GAT on a 30k-node graph, in-core DSM, pipelined "
                "schedule; loads nn forward/backward/optimizer; bypasses "
                "the dsm tier and embedding and the streaming loader",
            dataset={"name": "ogbn-products", "num_nodes": 30_000},
            store={},
            trainer={"model_name": "gat", "batch_size": 256,
                     "fanouts": [10, 10], "hidden": 64, "overlap": True},
            chunk_iterations=1,
            serve_rate_qps=200_000.0,
        ),
        Workload(
            name="train-sage-tiered",
            why="3-layer SAGE, fanouts 15/10/5, 60k nodes on the host/disk "
                "tier, streaming loader; loads ops sampling+AppendUnique and "
                "tier reads; bypasses dsm embedding and the pipelined executor",
            dataset={"name": "ogbn-products", "num_nodes": 60_000},
            store={"tier": "tiered"},
            trainer={"model_name": "sage", "batch_size": 256,
                     "fanouts": [15, 10, 5], "hidden": 32,
                     "streaming": True},
            chunk_iterations=1,
            serve_rate_qps=50_000.0,
        ),
        Workload(
            name="recsys",
            why="SAGE link prediction on a WholeEmbedding with SparseAdam, "
                "then top-k serving; loads DSM row writes, serve and per-call "
                "sim/telemetry/hardware; bypasses the tier and both loaders",
            dataset={"num_users": 4000, "num_items": 1500},
            store={},
            trainer={"model_name": "sage", "batch_size": 32,
                     "task": "linkpred", "num_pairs": 256, "hidden": 32,
                     "num_layers": 2, "lr": 1e-2},
            chunk_iterations=2,
            serve_rate_qps=200_000.0,
            auc_floor=0.8,
        ),
    )
}
