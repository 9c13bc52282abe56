"""The multi-machine data-parallel plan behind :class:`ClusterTrainer`.

The plan owns the cluster's epoch loop — node classification with one
loader per machine node, or replicated link prediction — the hierarchical
(NVLink-ring + InfiniBand-ring) grad-sync engine, the functional gradient
averaging across machine-node replicas, and both recovery policies
(elastic shrink over the surviving machines, or checkpoint restart into
every replica).  The trainer keeps what is not strategy: datasets,
replicas' model state, RNG streams and reporting.

Byte-identity: every clock charge and metric increment happens in the
order the pre-plan cluster trainer produced, so the cluster golden
manifests are unchanged.
"""

from __future__ import annotations

import os

import numpy as np

from repro import config
from repro.faults import RankFailureError
from repro.nn.sparse_optim import average_row_grads
from repro.telemetry import metrics
from repro.train.checkpoint import load_checkpoint
from repro.train.ddp import GradSyncModel
from repro.train.pipeline import (
    PipelinedExecutor,
    SequentialLoader,
    train_step,
)
from repro.train.plans.base import ParallelismPlan


class ClusterDataParallelPlan(ParallelismPlan):
    """Data parallelism over machine nodes: one full replica per DGX."""

    name = "cluster_data_parallel"

    def bind(self, trainer) -> None:
        """Build the hierarchical grad-sync engine over all machine nodes."""
        self.trainer = trainer
        trainer.grad_sync = GradSyncModel(
            trainer.nodes,
            [p.data.nbytes for p in trainer.models[0].parameters()],
            bucket_cap_mb=trainer._bucket_cap_mb,
            overlap=trainer._overlap_grad_sync,
        )

    # -- epoch loop --------------------------------------------------------

    def train_epoch(self, max_iterations=None) -> dict:
        """One epoch over every machine node; returns the history row.

        Each step is one round (:meth:`_node_round` or
        :meth:`_linkpred_round`) followed by a fault poll; a failure hands
        the batch cursor to the recovery policy and restarts the loaders.
        """
        t = self.trainer
        batches = t._epoch_batches(max_iterations)
        step = (
            self._linkpred_round if t.task == "linkpred"
            else self._node_round
        )
        t_start = max(node.sync() for node in t.nodes)
        losses: list[float] = []
        cursor = 0
        loaders = None
        while cursor < len(batches):
            try:
                if loaders is None:
                    loaders = self._loaders(batches[cursor:])
                cursor += step(batches, cursor, loaders, losses)
                t._poll_faults()
            except RankFailureError as exc:
                _, cursor, losses = self.recover(exc, None, cursor, losses)
                loaders = None
        t_end = max(node.sync() for node in t.nodes)
        stats = {
            "epoch": t._epoch,
            "mean_loss": float(np.mean(losses)) if losses else float("nan"),
            "iterations": len(batches),
            "epoch_time": t_end - t_start,
        }
        t._epoch += 1
        t.history.append(stats)
        if t._needs_checkpoints():
            t._save_checkpoint()
        return stats

    def _loaders(self, batches) -> list:
        """One loader per machine node over its round-robin share.

        Node ``i`` trains ``batches[i::k]``; its prologue runs lazily at
        its first step, so a pipelined node prefetches its next batch while
        the current one trains.
        """
        t = self.trainer
        if t.task == "linkpred":
            return []
        k = t.num_machine_nodes
        kind = PipelinedExecutor if t.overlap else SequentialLoader
        loaders = []
        for i in range(k):
            loader = kind(t.stores[i], t.samplers[i])
            loader.start(batches[i::k], t.rngs.rank(i))
            loaders.append(loader)
        return loaders

    def _node_round(self, batches, cursor, loaders, losses) -> int:
        """Machine node ``i`` trains ``batches[cursor + i]``, concurrently;
        then one global sync and optimizer step.  Returns the batches
        consumed."""
        t = self.trainer
        group = batches[cursor : cursor + t.num_machine_nodes]
        producers = []
        for i, batch in enumerate(group):
            loss, train_t = train_step(
                loaders[i], t.models[i], t.stores[i].labels[batch],
                t._model_rngs[i],
            )
            losses.append(loss)
            producers.append((t.nodes[i].gpu_clock[0].now, train_t))
        # global bucketed sync: averages the gradients functionally, then
        # charges the hierarchical (NVLink + IB) schedule — nodes that got
        # no batch this step stall at the collective barrier
        self.sync_gradients(producers)
        for opt in t.optimizers:
            opt.step()
        return len(group)

    def _linkpred_round(self, batches, cursor, loaders, losses) -> int:
        """Every machine node scores ``batches[cursor]``; the dense and
        sparse grads are averaged across replicas, then every replica
        applies the identical update.  Returns the batches consumed (1)."""
        from repro.train.trainer import linkpred_step

        t = self.trainer
        pairs = batches[cursor]
        producers = []
        collected = []
        machine_losses = []
        for i, node in enumerate(t.nodes):
            loss, _, train_t = linkpred_step(
                node, t.models[i], t.samplers[i], t.embeddings[i], pairs,
                t._sample_rngs[i], t._model_rngs[i], t._score_scale,
            )
            machine_losses.append(loss)
            producers.append((node.gpu_clock[0].now, train_t))
            collected.append(t.sparse_optimizers[i].collect())
        # dense encoder grads: float64-accumulate average (exact for the
        # identical replicated grads), then the hierarchical sync charge
        self.sync_gradients(producers, f64=True)
        for opt in t.optimizers:
            opt.step()
        # sparse row grads: union-average across replicas under the same
        # float64 contract, then every replica applies the identical update
        # (comm-lane push + touched-row state arithmetic on its own node)
        averaged = average_row_grads(collected)
        for sparse_opt in t.sparse_optimizers:
            sparse_opt.apply(averaged, rank=0)
        for node in t.nodes:
            node.sync()
        losses.append(float(np.mean(machine_losses)))
        return 1

    # -- gradient synchronisation ------------------------------------------

    def sync_gradients(self, producers, f64: bool = False) -> None:
        """Average gradients across replicas, then charge the collective.

        ``f64`` selects the float64-accumulate average used by replicated
        link prediction (exact for identical inputs); the timing side is
        the same bucketed NVLink + IB schedule either way.
        """
        if f64:
            self.average_gradients_f64()
        else:
            self.average_gradients()
        self.trainer.grad_sync.charge(producers, phase="allreduce")

    def average_gradients(self) -> None:
        """Functional half of the sync: average gradients across nodes."""
        t = self.trainer
        if t.num_machine_nodes > 1:
            params = [m.parameters() for m in t.models]
            for group in zip(*params):
                grads = [
                    p.grad if p.grad is not None else np.zeros_like(p.data)
                    for p in group
                ]
                mean = np.mean(grads, axis=0)
                for p in group:
                    p.grad = mean.copy()

    def average_gradients_f64(self) -> None:
        """Average dense grads across replicas in float64, cast back.

        Identical float32 inputs come back bitwise unchanged (``N*v`` is
        exact in float64 for a 24-bit mantissa and the division recovers
        ``v``), which the replicated link-prediction identity tests pin.
        """
        t = self.trainer
        if t.num_machine_nodes <= 1:
            return
        params = [m.parameters() for m in t.models]
        for group in zip(*params):
            grads = [
                p.grad if p.grad is not None else np.zeros_like(p.data)
                for p in group
            ]
            acc = np.zeros(grads[0].shape, dtype=np.float64)
            for g in grads:
                acc += g.astype(np.float64)
            mean = (acc / len(grads)).astype(np.float32)
            for p in group:
                p.grad = mean.copy()

    # -- fault recovery ----------------------------------------------------

    def recover(self, exc: RankFailureError, batches, cursor, losses):
        """Run the configured recovery policy after a machine-node loss.

        ``batches`` passes through untranslated — every machine node holds
        a full replica of the store, so stored IDs survive a shrink.
        """
        t = self.trainer
        t_fail = t._now()
        if t.recovery_policy == "shrink":
            self._recover_shrink(exc)
        else:
            self._recover_restart()
            cursor = 0
            losses.clear()
        t_after = t._now()
        record = {
            "time": t_fail,
            "nodes": sorted({n for n, _ in exc.ranks}),
            "policy": t.recovery_policy,
            "recovery_seconds": t_after - t_fail,
            "num_machine_nodes": t.num_machine_nodes,
        }
        t.recoveries.append(record)
        metrics.get_registry().counter(
            "recovery_seconds", policy=t.recovery_policy
        ).inc(t_after - t_fail)
        return batches, cursor, losses

    def _charge_recovery(self, node_indices, extra_dt: float = 0.0) -> None:
        """Charge detection + re-init (+ ``extra_dt``) to the given nodes."""
        t = self.trainer
        t_fail = t._now()
        dt = (
            config.FAULT_DETECT_SECONDS
            + config.COMM_REINIT_SECONDS
            + extra_dt
        )
        for i in node_indices:
            node = t.nodes[i]
            for clock in node.gpu_clock:
                clock.wait_until(
                    t_fail, phase="recovery_wait", category="fault"
                )
                clock.advance(
                    dt, phase="recovery", busy=False, category="fault",
                    args={"policy": t.recovery_policy},
                )
            node.sync(phase="recovery_wait")

    def _recover_shrink(self, exc: RankFailureError) -> None:
        """Drop the failed machine node(s); survivors continue in sync.

        Replicas are identical at every optimizer step, so no state moves —
        the survivors only pay failure detection and communicator re-init,
        and the gradient sync re-buckets over the remaining nodes.
        """
        t = self.trainer
        dead = {n for n, _ in exc.ranks}
        keep = [
            i for i, node in enumerate(t.nodes)
            if node.node_id not in dead
        ]
        if not keep:
            raise exc  # no surviving replica to continue with
        self._charge_recovery(keep)
        for name in (
            "nodes", "stores", "samplers", "models", "optimizers",
            "_model_rngs",
        ):
            setattr(t, name, [getattr(t, name)[i] for i in keep])
        t.num_machine_nodes = len(keep)
        t.grad_sync = GradSyncModel(
            t.nodes,
            [p.data.nbytes for p in t.models[0].parameters()],
            bucket_cap_mb=t.grad_sync.bucket_cap_mb,
            overlap=t.grad_sync.overlap,
        )
        if t.fault_injector is not None:
            t.fault_injector.install(t.nodes)

    def _recover_restart(self) -> None:
        """Reload the last epoch-boundary checkpoint into every replica.

        The failed node's process is assumed restarted on the same
        hardware: every node pays detection + re-init + the PCIe reload of
        the checkpointed model+optimizer state, then the epoch re-runs.
        """
        from repro.hardware import costmodel

        t = self.trainer
        state_bytes = 3 * sum(
            p.data.nbytes for p in t.models[0].parameters()
        )
        self._charge_recovery(
            range(t.num_machine_nodes),
            extra_dt=costmodel.pcie_host_to_gpu_time(
                state_bytes, shared=False
            ),
        )
        path = t._checkpoint_path()
        if os.path.exists(path):
            for model, opt in zip(t.models, t.optimizers):
                load_checkpoint(path, model, opt)
