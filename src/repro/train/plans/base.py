"""The parallelism-plan interface shared by every training strategy.

A *plan* owns everything about a training run that depends on how work is
spread across GPUs: which replicas/partitions exist, how an epoch is
scheduled onto the simulated streams, how gradients are synchronised, and
how a permanent rank failure is survived.  The
:class:`~repro.train.trainer.WholeGraphTrainer` owns everything that does
not — the dataset, the model/optimizer state, RNG streams, checkpoints and
reporting — and delegates the rest through this interface.

Concrete plans:

- :class:`~repro.train.plans.data_parallel.DataParallelPlan` — the default
  WholeGraph regime (symmetric or true-DDP data parallelism);
- :class:`~repro.train.plans.pipeline_parallel.PipelineParallelPlan` —
  GNNPipe-style layer-pipelined model parallelism;
- :class:`~repro.train.plans.pipeline_parallel.HybridParallelPlan` —
  pipeline stages replicated into data-parallel groups;
- :class:`~repro.train.plans.cagnet.CagnetFullGraphPlan` — CAGNET-style
  1.5D partitioned no-sampling full-graph training.
"""

from __future__ import annotations

import os

from repro import config
from repro.faults import RankFailureError
from repro.hardware import costmodel
from repro.telemetry import metrics
from repro.train.checkpoint import load_checkpoint


class ParallelismPlan:
    """Base class wiring one parallelisation strategy into the trainer.

    Lifecycle: the trainer constructs the plan (strategy knobs only — no
    trainer state), then calls :meth:`bind` exactly once from its own
    constructor.  ``bind`` validates the trainer's knobs against the
    strategy, builds the replica set and the gradient-sync engine, and
    stores the back-reference used by every later hook.
    """

    #: strategy identifier; appears in ``report_config`` for non-default
    #: plans and in error messages
    name = "abstract"

    def __init__(self):
        """Initialise the (unbound) plan."""
        self.trainer = None

    def bind(self, trainer) -> None:
        """Attach the plan to ``trainer`` and build its execution state.

        Subclasses validate the trainer's schedule knobs, then must leave
        ``trainer.replicas``, ``trainer.ddp`` and ``trainer.grad_sync``
        populated — the grad-sync engine is plan-owned state that merely
        lives on the trainer for reporting and test access.
        """
        raise NotImplementedError

    def train_epoch(self, max_iterations: int | None = None):
        """Run one training epoch and return its ``EpochStats``.

        The plan owns the whole epoch: batch scheduling, stream charges,
        gradient sync, fault polling and recovery dispatch, under the
        schedule the trainer was constructed with.  It must append the
        stats to ``trainer.history``, advance ``trainer._epoch`` and write
        an epoch-boundary checkpoint when the trainer needs one.
        """
        raise NotImplementedError

    def report_config(self) -> dict:
        """Config keys this plan adds to the run manifest.

        The default (data-parallel) plan returns ``{}`` so every manifest
        produced before the plan abstraction existed — including the golden
        files — stays byte-identical.
        """
        return {}

    # -- fault recovery ----------------------------------------------------

    def recover(self, exc: RankFailureError, batches, cursor, losses):
        """Run the trainer's recovery policy after a rank failure.

        Returns the (possibly translated) batches plus the batch cursor and
        loss list to resume with; every recovery lands in
        ``trainer.recoveries``, the ``recovery_seconds`` metric, and the
        trace.
        """
        t = self.trainer
        t_fail = max(c.now for c in t.node.gpu_clock)
        batches, cursor, losses = self._apply_recovery(
            exc, batches, cursor, losses
        )
        t_after = max(c.now for c in t.node.gpu_clock)
        record = {
            "time": t_fail,
            "ranks": [list(r) for r in exc.ranks],
            "policy": t.recovery_policy,
            "recovery_seconds": t_after - t_fail,
            "num_gpus": t.node.num_gpus,
        }
        t.recoveries.append(record)
        metrics.get_registry().counter(
            "recovery_seconds", policy=t.recovery_policy
        ).inc(t_after - t_fail)
        return batches, cursor, losses

    def _apply_recovery(self, exc, batches, cursor, losses):
        """Dispatch the configured policy (base: checkpoint restart only)."""
        if self.trainer.recovery_policy != "restart":
            raise ValueError(
                f"the {self.name} plan supports recovery_policy='restart' "
                f"only"
            )
        self.restart()
        losses.clear()
        return batches, 0, losses

    def restart(self) -> None:
        """Checkpoint-based restart: reload the last epoch-boundary state.

        The failed GPU is replaced (same GPU count); all ranks pay failure
        detection, communicator re-init, DSM re-establishment and the PCIe
        reload of the checkpointed model+optimizer state, then the epoch
        re-runs from its first batch.
        """
        t = self.trainer
        node = t.node
        now = max(c.now for c in node.gpu_clock)
        # weights + two Adam moments ride PCIe back to the device
        state_bytes = 3 * sum(
            p.data.nbytes for p in t.model.parameters()
        )
        dt = (
            config.FAULT_DETECT_SECONDS
            + config.COMM_REINIT_SECONDS
            + costmodel.dsm_setup_time(node.total_memory_usage())
            + costmodel.pcie_host_to_gpu_time(state_bytes, shared=False)
        )
        for clock in node.gpu_clock:
            clock.wait_until(now, phase="recovery_wait", category="fault")
            clock.advance(
                dt, phase="recovery", busy=False, category="fault",
                args={"policy": "restart"},
            )
        node.sync(phase="recovery_wait")
        path = t._checkpoint_path()
        if os.path.exists(path):
            load_checkpoint(path, t.model, t.optimizer)
            if t.compute_ranks == "all":
                for replica, opt in zip(t.replicas[1:], t.optimizers[1:]):
                    load_checkpoint(path, replica, opt)


def resolve_plan(plan) -> ParallelismPlan:
    """Turn the trainer's ``plan`` argument into a plan instance.

    ``None`` selects the default :class:`DataParallelPlan`; a string is a
    plan name (``"data_parallel"``, ``"pipeline"``, ``"hybrid"``,
    ``"cagnet"``) with default knobs; a :class:`ParallelismPlan` instance
    passes through (the way to set per-plan knobs).
    """
    from repro.train.plans.cagnet import CagnetFullGraphPlan
    from repro.train.plans.data_parallel import DataParallelPlan
    from repro.train.plans.pipeline_parallel import (
        HybridParallelPlan,
        PipelineParallelPlan,
    )

    if plan is None:
        return DataParallelPlan()
    if isinstance(plan, ParallelismPlan):
        if plan.trainer is not None:
            raise ValueError("plan instances bind to a single trainer")
        return plan
    names = {
        "data_parallel": DataParallelPlan,
        "pipeline": PipelineParallelPlan,
        "hybrid": HybridParallelPlan,
        "cagnet": CagnetFullGraphPlan,
        "cagnet_15d": CagnetFullGraphPlan,
    }
    try:
        return names[plan]()
    except KeyError:
        raise ValueError(
            f"unknown parallelism plan {plan!r}; available: {sorted(names)}"
        ) from None
