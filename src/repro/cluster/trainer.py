"""Functional multi-node data-parallel training (paper §III-D).

Complements the analytic scaling model in :mod:`repro.cluster.multinode`
with a *measured* multi-machine run: every machine node is a full
:class:`~repro.hardware.machine.SimNode` holding its own replica of the
graph store; iterations are distributed across nodes; each node computes
its local gradients, an inter-node all-reduce averages them over the
InfiniBand NICs, and every replica steps identically — the Apex-DDP flow
the paper describes.

The replicas really stay bit-identical (``assert_in_sync``), and the
per-node clocks really show the near-linear epoch-time reduction of
Fig. 13.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.dsm.sparse_embedding import WholeEmbedding
from repro.faults import FaultPlan
from repro.graph import MultiGpuGraphStore
from repro.graph.datasets import SyntheticDataset
from repro.hardware import SimNode
from repro.nn.models import build_model
from repro.nn.optim import Adam
from repro.ops.neighbor_sampler import NeighborSampler
from repro.train.plans.cluster import ClusterDataParallelPlan
from repro.train.trainer import SPARSE_OPTIMIZERS, TrainerBase
from repro.utils.rng import RngPool, spawn_rng


class ClusterTrainer(TrainerBase):
    """Train one model data-parallel over ``num_machine_nodes`` DGX nodes.

    The epoch itself runs on its
    :class:`~repro.train.plans.cluster.ClusterDataParallelPlan`.
    Evaluation, checkpoints and the manifest use machine node 0's replica
    (``node``/``store``/``model`` …); the replicas stay in sync.
    """

    _eval_stream = "cluster-eval"
    #: failures scheduled on any machine node fire
    _fault_node_id = None

    def __init__(
        self,
        dataset: SyntheticDataset,
        num_machine_nodes: int,
        model_name: str,
        seed: int = 0,
        batch_size: int = config.BATCH_SIZE,
        fanouts=None,
        hidden: int = config.HIDDEN_SIZE,
        num_layers: int = config.NUM_LAYERS,
        lr: float = 3e-3,
        dropout: float = 0.5,
        overlap: bool = False,
        bucket_cap_mb: float | None = None,
        overlap_grad_sync: bool = True,
        fault_plan: FaultPlan | None = None,
        recovery_policy: str = "shrink",
        checkpoint_dir: str | None = None,
        task: str = "node",
        embedding_dim: int | None = None,
        num_pairs: int | None = None,
        sparse_optimizer: str = "adam",
    ):
        """``overlap=True`` selects the double-buffered schedule on every
        machine node: each node prefetches its next batch's sample+gather
        while the current batch trains (same bit-identical-math guarantee as
        :class:`~repro.train.trainer.WholeGraphTrainer`).

        ``bucket_cap_mb`` / ``overlap_grad_sync`` configure the bucketed
        hierarchical gradient synchronisation (intra-node NVLink ring plus
        an inter-node IB ring per bucket); both are pure timing knobs.

        ``fault_plan`` injects scheduled faults (:mod:`repro.faults`); a
        rank failure takes its whole machine node (replica) down.
        ``recovery_policy="shrink"`` (default) drops the dead node and
        continues data-parallel over the survivors — replicas are already
        in sync, so no state moves; ``"restart"`` reloads the last
        epoch-boundary checkpoint into every replica and re-runs the epoch
        (the failed node's process is assumed restarted in place).

        ``task="linkpred"`` trains link prediction replicated: every
        machine node processes the same pair batch each step, so the
        trajectory is bit-identical to the single-node trainer's."""
        if num_machine_nodes < 1:
            raise ValueError("need at least one machine node")
        if fanouts is None:
            fanouts = [config.FANOUT] * num_layers
        else:
            fanouts = list(fanouts)
            num_layers = len(fanouts)
        self.batch_size = int(batch_size)
        self.num_machine_nodes = num_machine_nodes
        self.seed = int(seed)
        self.model_name = model_name
        self.history: list[dict] = []

        # one full replica of everything per machine node (§III-D: "each
        # machine node holds one replica of the graph structure and graph
        # features")
        self.nodes = [SimNode(node_id=i) for i in range(num_machine_nodes)]
        self.stores = [
            MultiGpuGraphStore(node, dataset, seed=seed)
            for node in self.nodes
        ]
        self.samplers = [
            NeighborSampler(store, fanouts) for store in self.stores
        ]
        self._check_task(task, not overlap, fault_plan, sparse_optimizer)

        if task == "linkpred":
            self._init_linkpred(
                embedding_dim, num_pairs, sparse_optimizer, hidden
            )
            # replicated link prediction: every machine processes *the
            # same* global pair batch, so the trajectory is bit-identical
            # to the single-node trainer's — same "init" model stream,
            # same "embedding" init, same per-step "rank"/"dropout"
            # consumption, one shared "linkpred-pairs" stream
            init_rng = spawn_rng(seed, "init")
            self.models = [
                build_model(
                    model_name, self.embedding_dim, hidden, init_rng,
                    hidden=hidden, num_layers=num_layers, dropout=dropout,
                )
                for _ in range(num_machine_nodes)
            ]
            self.embeddings = [
                WholeEmbedding(
                    node, self.store.num_nodes, self.embedding_dim,
                    rng=spawn_rng(seed, "embedding"),
                )
                for node in self.nodes
            ]
            self.sparse_optimizers = [
                SPARSE_OPTIMIZERS[sparse_optimizer]([emb], lr=lr)
                for emb in self.embeddings
            ]
            self._sample_rngs = [
                spawn_rng(seed, "rank", 0)
                for _ in range(num_machine_nodes)
            ]
        else:
            self.embeddings = []
            self.sparse_optimizers = []
            init_rng = spawn_rng(seed, "cluster-init")
            self.models = [
                build_model(
                    model_name, self.store.feature_dim,
                    self.store.num_classes, init_rng,
                    hidden=hidden, num_layers=num_layers, dropout=dropout,
                )
                for _ in range(num_machine_nodes)
            ]
        # start in sync (the DDP weight broadcast)
        state = self.models[0].state_dict()
        for m in self.models[1:]:
            m.load_state_dict(state)
        self.optimizers = [Adam(m.parameters(), lr=lr) for m in self.models]
        self._bucket_cap_mb = bucket_cap_mb
        self._overlap_grad_sync = bool(overlap_grad_sync)
        # the plan owns the epoch loop, gradient sync and fault recovery;
        # its bind leaves ``self.grad_sync`` (the bucketed hierarchical
        # pricing over all machine nodes) populated for reporting and
        # test access
        self.plan = ClusterDataParallelPlan()
        self.plan.bind(self)
        self.rngs = RngPool(seed, num_machine_nodes)
        self.epoch_rng = self.rngs.named("cluster-epochs")
        self.overlap = bool(overlap)
        #: per-node dropout streams, separate from the sampling streams so
        #: both schedules consume each stream in the same order; replicated
        #: link prediction instead gives every machine the single-node
        #: trainer's "dropout" stream (consumed identically on identical
        #: batches, so replicas stay in lock-step with the single-node run)
        self._model_rngs = [
            (
                spawn_rng(seed, "dropout") if task == "linkpred"
                else self.rngs.named(f"cluster-dropout-{i}")
            )
            for i in range(num_machine_nodes)
        ]
        self._epoch = 0

        # -- fault injection & recovery ------------------------------------
        self._init_faults(fault_plan, recovery_policy, checkpoint_dir)
        self._install_faults()

    # machine node 0's replica stands for the cluster where one is needed

    @property
    def node(self) -> SimNode:
        return self.nodes[0]

    @property
    def store(self) -> MultiGpuGraphStore:
        return self.stores[0]

    @property
    def sampler(self) -> NeighborSampler:
        return self.samplers[0]

    @property
    def model(self):
        return self.models[0]

    @property
    def optimizer(self) -> Adam:
        return self.optimizers[0]

    @property
    def embedding(self) -> WholeEmbedding:
        return self.embeddings[0]

    @property
    def sparse_optimizer(self):
        return self.sparse_optimizers[0]

    @property
    def _batches_per_step(self) -> int:
        # one global batch per machine node per step
        return self.num_machine_nodes

    def train_epoch(self, max_iterations: int | None = None) -> dict:
        """One epoch, run by the plan: node classification distributes the
        global batches round-robin over the machine nodes (processed
        concurrently, per-node clocks advance in parallel); replicated
        link prediction gives every node the same pair batch."""
        return self.plan.train_epoch(max_iterations)

    def run_report(self, name: str = "cluster",
                   accuracy: float | None = None,
                   extra: dict | None = None):
        """Structured JSON manifest of the multi-node run (machine node 0's
        timeline; per-node epoch times in ``extra``) — see
        :mod:`repro.telemetry.run_report`."""
        from repro.telemetry.run_report import report_from_node

        merged = {
            "node_epoch_times": [
                max(c.now for c in node.gpu_clock) for node in self.nodes
            ],
            "recoveries": list(self.recoveries),
            **self._linkpred_extra(),
        }
        cfg = self._report_config()
        cfg.update({
            "num_machine_nodes": self.num_machine_nodes,
            "num_gpus_per_node": self.nodes[0].num_gpus,
        })
        merged.update(extra or {})
        return report_from_node(
            name,
            self.nodes[0],
            kind="train",
            config=cfg,
            seed=self.seed,
            feature_stats=getattr(
                self.stores[0].feature_tensor, "stats", None
            ),
            cache=self.stores[0].feature_cache,
            accuracy=accuracy,
            history=list(self.history),
            extra=merged,
        )

    def assert_in_sync(self, atol: float = 1e-5) -> None:
        """All machine-node replicas hold identical weights (and, for link
        prediction, identical embedding tables)."""
        ref = self.models[0].state_dict()
        for i, m in enumerate(self.models[1:], start=1):
            for a, b in zip(ref, m.state_dict()):
                if not np.allclose(a, b, atol=atol):
                    raise AssertionError(f"machine node {i} diverged")
        if self.embeddings:
            rows = np.arange(self.embeddings[0].num_rows, dtype=np.int64)
            ref_rows = self.embeddings[0].read_rows(rows)
            for i, emb in enumerate(self.embeddings[1:], start=1):
                if not np.allclose(emb.read_rows(rows), ref_rows, atol=atol):
                    raise AssertionError(
                        f"machine node {i} embedding diverged"
                    )
