"""The default WholeGraph data-parallel plan (paper §III-D).

Every clock charge, stream launch, RNG draw and metric increment happens
in the order the pre-plan trainer produced, so a data-parallel run through
this plan is byte-identical to the golden manifests
(``tests/test_parallelism_plans.py`` pins this with a hypothesis sweep).

:meth:`DataParallelPlan.train_epoch` is the single-node epoch loop for
every task and schedule; what runs per batch is a step function:

- symmetric node classification (``compute_ranks="one"``) — rank 0 runs
  the real math on the batch its schedule's loader staged (sequential,
  double-buffered ``overlap=True`` or out-of-core ``streaming=True``) and
  the loader mirrors the per-phase durations onto the other ranks;
- true DDP (``compute_ranks="all"``) — one model replica per GPU,
  per-rank batches, real bucketed gradient all-reduce every step;
- link prediction (``task="linkpred"``) — pair batches scored on rank 0,
  dense grads through the bucketed sync, sparse row grads pushed over the
  comm stream.

Both recovery policies (checkpoint restart and elastic shrink) plug in
here.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.dsm.comm import Communicator
from repro.faults import RankFailureError
from repro.hardware.machine import SimNode
from repro.hardware.spec import dgx_a100
from repro.nn.models import build_model
from repro.nn.optim import Adam
from repro.ops.neighbor_sampler import NeighborSampler
from repro.telemetry import metrics
from repro.train.ddp import DistributedDataParallel, GradSyncModel
from repro.train.metrics import PhaseTimes
from repro.train.pipeline import (
    PipelinedExecutor,
    SequentialLoader,
    run_iteration,
    train_step,
)
from repro.train.plans.base import ParallelismPlan
from repro.train.streaming import StreamingLoader


class DataParallelPlan(ParallelismPlan):
    """Data parallelism: every GPU holds the full model, batches split."""

    name = "data_parallel"

    def bind(self, trainer) -> None:
        """Build the replica set and the bucketed grad-sync engine."""
        self.trainer = trainer
        t = trainer
        if t.compute_ranks == "all":
            t.replicas = [t.model] + [
                build_model(
                    t.model_name, t.store.feature_dim, t.store.num_classes,
                    t.rngs.named(f"replica{r}"),
                    hidden=t.hidden, num_layers=t.num_layers,
                    dropout=t.dropout,
                )
                for r in range(1, t.node.num_gpus)
            ]
            t.comm = Communicator(t.node)
            t.ddp = DistributedDataParallel(
                t.replicas, t.comm,
                bucket_cap_mb=t._bucket_cap_mb,
                overlap_grad_sync=t._overlap_grad_sync,
            )
            t.grad_sync = t.ddp.sync_model
            t.optimizers = [Adam(r.parameters(), lr=t.lr) for r in t.replicas]
            t.optimizers[0] = t.optimizer
        else:
            t.replicas = [t.model]
            t.ddp = None
            t.grad_sync = GradSyncModel(
                t.node,
                [p.data.size * p.data.itemsize
                 for p in t.model.parameters()],
                bucket_cap_mb=t._bucket_cap_mb,
                overlap=t._overlap_grad_sync,
            )

    # -- epoch loop --------------------------------------------------------

    def train_epoch(self, max_iterations=None):
        """One pass over the epoch's batches (optionally truncated).

        Every task and schedule runs this loop: each attempt starts a step
        function over the remaining batches (:meth:`_begin`), every
        completed batch advances the cursor and polls for rank failures,
        and a failure hands the cursor to the recovery policy before the
        next attempt.
        """
        from repro.train.trainer import EpochStats

        t = self.trainer
        t.model.train()
        batches = t._epoch_batches(max_iterations)
        t_epoch_start = t.node.sync()
        losses: list[float] = []
        phase_totals = PhaseTimes()
        cursor = 0
        # grad-sync accumulators survive a mid-epoch recovery (a shrink
        # replaces the node and its timeline, so deltas are per attempt)
        ar_acc = aw_acc = hid_acc = 0.0
        while True:
            node = t.node
            ar0, aw0, hid0 = _sync_ledgers(node)
            try:
                step = self._begin(batches[cursor:], phase_totals)
                while cursor < len(batches):
                    losses.append(step(batches[cursor], phase_totals))
                    cursor += 1
                    t._poll_faults()
                break
            except RankFailureError as exc:
                ar, aw, hid = _sync_ledgers(node)
                ar_acc += ar - ar0
                aw_acc += aw - aw0
                hid_acc += hid - hid0
                batches, cursor, losses = self.recover(
                    exc, batches, cursor, losses
                )
        node = t.node
        t_epoch_end = node.sync()
        ar, aw, hid = _sync_ledgers(node)

        if t.compute_ranks == "all":
            dev0 = node.gpu_memory[0].device
            phase_totals = PhaseTimes(
                sample=node.timeline.phase_total("sample", dev0),
                gather=node.timeline.phase_total("gather", dev0),
                train=node.timeline.phase_total("train", dev0),
            )

        stats = EpochStats(
            epoch=t._epoch,
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            iterations=len(batches),
            times=phase_totals,
            epoch_time=t_epoch_end - t_epoch_start,
            allreduce=ar_acc + ar - ar0,
            allreduce_wait=aw_acc + aw - aw0,
            allreduce_hidden=hid_acc + hid - hid0,
        )
        t._epoch += 1
        t.history.append(stats)
        if t._needs_checkpoints():
            t._save_checkpoint()
        return stats

    # -- step functions ----------------------------------------------------

    def _begin(self, batches: list, phase_totals: PhaseTimes):
        """Start one attempt over ``batches``; returns the per-batch step.

        Link prediction and true DDP prepare each batch inside their step.
        The symmetric node-classification step drives the schedule's
        loader: the prologue prefetches run here, followed by the
        loader's barrier.
        """
        t = self.trainer
        if t.task == "linkpred":
            return self._linkpred_step
        if t.compute_ranks == "all":
            return self._ddp_step
        if t.streaming:
            loader = StreamingLoader(
                t.store, t.sampler, prefetch_depth=t.prefetch_depth
            )
        elif t.overlap:
            loader = PipelinedExecutor(t.store, t.sampler)
        else:
            loader = SequentialLoader(t.store, t.sampler)
        loader.start(batches, t.rngs.rank(0), phase_totals)
        loader.prime()
        if loader.barrier:
            t.node.sync()
        return functools.partial(self._loader_step, loader)

    def _loader_step(self, loader, batch: np.ndarray,
                     phase_totals: PhaseTimes) -> float:
        """Rank 0 computes; the loader charges every rank its schedule."""
        t = self.trainer
        node = t.node
        loss, train_t = train_step(
            loader, t.model, t.store.labels[batch], t._model_rng,
            t.layer_cost_factor,
        )
        t.grad_sync.charge(
            producers=[(node.gpu_clock[0].now, train_t)],
            phase="allreduce",
        )
        t.optimizer.step()
        if loader.barrier:
            node.sync()
        phase_totals += PhaseTimes(train=train_t)
        return loss

    def _linkpred_step(self, pairs, phase_totals: PhaseTimes) -> float:
        """Score one pair batch, sync the dense grads through the bucketed
        engine, push the sparse row grads over the comm stream."""
        from repro.train.trainer import linkpred_step

        t = self.trainer
        node = t.node
        loss, res, train_t = linkpred_step(
            node, t.model, t.sampler, t.embedding, pairs, t.rngs.rank(0),
            t._model_rng, t._score_scale, t.layer_cost_factor,
        )
        reg = metrics.get_registry()
        reg.counter("iterations_total", schedule="linkpred").inc(1)
        reg.counter("phase_seconds_total", phase="sample").inc(res.t_sample)
        reg.counter("phase_seconds_total", phase="gather").inc(res.t_gather)
        reg.counter("phase_seconds_total", phase="train").inc(train_t)
        # dense encoder params: the bucketed grad-sync engine (the plan is
        # built from model.parameters() only — the embedding is not a
        # Parameter, so the sparse rows are skipped by construction)
        t.grad_sync.charge(
            producers=[(node.gpu_clock[0].now, train_t)],
            phase="allreduce",
        )
        t.optimizer.step()
        # sparse rows: dedup + scatter-add + comm-lane push, touched-row
        # state update priced on the owning ranks
        t.sparse_optimizer.step(rank=0)
        node.sync()
        phase_totals += PhaseTimes(
            sample=res.t_sample, gather=res.t_gather, train=train_t
        )
        return loss

    def _ddp_step(self, batch: np.ndarray,
                  phase_totals: PhaseTimes) -> float:
        """True DDP: per-rank batches, real gradient all-reduce."""
        t = self.trainer
        node = t.node
        # split the global batch across ranks (pad by wrapping)
        per_rank = np.array_split(batch, node.num_gpus)
        losses = []
        train_times = []
        for rank in range(node.num_gpus):
            seeds = per_rank[rank]
            if seeds.size == 0:
                seeds = batch[:1]
            model = t.replicas[rank]
            model.train()
            res = run_iteration(
                t.store, t.sampler, model, seeds, rank,
                t.rngs.rank(rank), optimizer=None, charge_train=True,
                compute_grads=True,
            )
            losses.append(res.loss)
            train_times.append(res.times.train)
        t.ddp.sync_gradients(phase="allreduce", train_times=train_times)
        for opt in t.optimizers:
            opt.step()
        node.sync()
        return float(np.mean(losses))

    # -- fault recovery ----------------------------------------------------

    def _apply_recovery(self, exc, batches, cursor, losses):
        """Dispatch restart or elastic shrink (both supported here)."""
        t = self.trainer
        if t.recovery_policy == "shrink":
            batches = self._recover_shrink(exc, batches)
        else:
            self.restart()
            cursor = 0
            losses.clear()
        return batches, cursor, losses

    def _recover_shrink(
        self, exc: RankFailureError, batches: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Elastic shrink: re-shard onto the surviving GPUs and continue.

        Builds a replacement :class:`SimNode` with the survivors'
        GPU count, fast-forwards its clocks to the failure time plus
        detection/re-init, re-shards the graph store (WholeMemory setup and
        feature reload are charged), re-buckets the gradient sync, and
        translates the epoch's remaining batches into the new stored-ID
        space.  Model and optimizer state survive in place — the symmetric
        replica never lived on the failed GPU alone.
        """
        from repro import config

        t = self.trainer
        old_node = t.node
        old_store = t.store
        failed = {r for n, r in exc.ranks if n == old_node.node_id}
        survivors = old_node.num_gpus - len(failed)
        if survivors < 1:
            raise exc  # nothing left to shrink onto
        t_fail = max(c.now for c in old_node.gpu_clock)
        new_node = SimNode(dgx_a100(survivors), node_id=old_node.node_id)
        t0 = (
            t_fail
            + config.FAULT_DETECT_SECONDS
            + config.COMM_REINIT_SECONDS
        )
        for clock in new_node.gpu_clock:
            clock.wait_until(t0, phase="recovery_wait", category="fault")
        new_node.host_clock.wait_until(
            t0, phase="recovery_wait", category="fault"
        )
        # re-shard WholeMemory across the survivors (setup + PCIe reload
        # are charged to the new clocks under dsm_setup/load)
        new_store = old_store.rebuild_on(new_node, charge_setup=True)
        # the hash partition depends on the GPU count: translate the
        # remaining batches old-stored -> original -> new-stored
        batches = [
            new_store.partition.to_stored[
                old_store.partition.to_original[batch]
            ]
            for batch in batches
        ]
        t.node = new_node
        t.store = new_store
        t.sampler = NeighborSampler(new_store, t.sampler.fanouts)
        t.grad_sync = GradSyncModel(
            new_node,
            [p.data.size * p.data.itemsize
             for p in t.model.parameters()],
            bucket_cap_mb=t.grad_sync.bucket_cap_mb,
            overlap=t.grad_sync.overlap,
        )
        if t.fault_injector is not None:
            t.fault_injector.install(new_node)
        new_node.sync(phase="recovery_wait")
        return batches


def _sync_ledgers(node) -> tuple[float, float, float]:
    """Exposed all-reduce, all-reduce entry wait (rank 0's timeline) and
    hidden all-reduce seconds (the registry) accumulated so far."""
    dev0 = node.gpu_memory[0].device
    return (
        node.timeline.phase_total("allreduce", dev0),
        node.timeline.phase_total("allreduce_wait", dev0),
        metrics.get_registry().total("grad_sync_hidden_seconds_total"),
    )
