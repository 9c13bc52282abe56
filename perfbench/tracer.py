"""Host-clock tracer over the repro modules' public functions.

While installed, a :class:`Tracer` replaces each boundary's function (a
module-level function at the binding its caller looks up, or a class
attribute) with a wrapper that counts calls and times them with
``perf_counter_ns``.  A boundary's *self time* is its calls' host time minus
the time spent in wrapped children.  A call into a boundary that is already
open on the stack (``Module.__call__`` inside ``Module.__call__``) is not
timed again: it belongs to the outer call.  On exit every patched attribute
is restored to exactly what it was, so the program runs untouched again.

The tracer only observes: it charges no simulated clock and consumes no
random numbers, so a traced run's losses and simulated times are
bit-identical to an untraced run's.

Each boundary also records which end-to-end metric, on which workloads,
a change behind it is expected to move; ``catalogue.py`` lists these as
the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections.abc import Callable
from time import perf_counter_ns
from typing import NamedTuple


def _count_unique(stats: dict, args: tuple, kwargs: dict, result) -> None:
    """AppendUnique work: unique sources against targets + edges."""
    targets = kwargs.get("target_nodes", args[0] if args else ())
    neighbors = kwargs.get("neighbor_nodes", args[1] if len(args) > 1 else ())
    stats["unique"] += int(result.num_unique)
    stats["appended"] += len(targets) + len(neighbors)


TRAIN, SERVE = "train_samples_per_s", "serve_requests_per_s"
GAT, SAGE, REC = "train-gat", "train-sage-tiered", "recsys"
ALL = (GAT, SAGE, REC)


class Boundary(NamedTuple):
    """A timed layer boundary and what a change behind it should move."""

    name: str
    #: the end-to-end metric a change here is expected to move ...
    moves: str
    #: ... and on which workloads
    workloads: tuple[str, ...]
    #: (module, attribute path) of every function timed as this boundary
    targets: tuple[tuple[str, str], ...]
    #: called as ``observe(work, args, kwargs, result)`` after each call
    observe: Callable | None = None


BOUNDARIES = (
    Boundary("ops.sample_layer", TRAIN, (SAGE, REC),
             (("repro.ops.neighbor_sampler", "sample_layer"),)),
    # imported by name into the sampler, so it is patched at that binding
    Boundary("ops.append_unique", TRAIN, (SAGE, REC),
             (("repro.ops.neighbor_sampler", "append_unique"),),
             _count_unique),
    Boundary("graph.gather_features", TRAIN, (GAT, REC),
             (("repro.graph.storage", "MultiGpuGraphStore.gather_features"),)),
    Boundary("dsm.tier_read", TRAIN, (SAGE,),
             (("repro.dsm.tiered_tensor", "TieredTensor.gather_no_cost"),)),
    Boundary("dsm.tier_price", TRAIN, (SAGE,),
             (("repro.dsm.tiered_tensor", "TieredTensor.fetch_time"),)),
    Boundary("dsm.embed_forward", TRAIN, (REC,),
             (("repro.dsm.sparse_embedding", "WholeEmbedding.forward"),)),
    Boundary("dsm.embed_push", TRAIN, (REC,),
             (("repro.dsm.sparse_embedding",
               "WholeEmbedding.push_row_grads"),)),
    Boundary("nn.forward", TRAIN, ALL,
             (("repro.nn.module", "Module.__call__"),)),
    Boundary("nn.backward", TRAIN, ALL,
             (("repro.nn.tensor", "Tensor.backward"),)),
    Boundary("nn.optim", TRAIN, (GAT,),
             (("repro.nn.optim", "Adam.step"), ("repro.nn.optim", "SGD.step"))),
    Boundary("nn.sparse_optim", TRAIN, (REC,),
             (("repro.nn.sparse_optim", "SparseOptimizer.step"),)),
    Boundary("train.loop", TRAIN, ALL,
             (("repro.train.trainer", "WholeGraphTrainer.train_epoch"),)),
    Boundary("train.grad_sync", TRAIN, ALL,
             (("repro.train.ddp", "GradSyncModel.charge"),)),
    Boundary("train.pipe_prefetch", TRAIN, (GAT,),
             (("repro.train.pipeline", "PipelinedExecutor.prefetch"),)),
    Boundary("train.stream_prefetch", TRAIN, (SAGE,),
             (("repro.train.streaming", "StreamingLoader.prefetch"),)),
    Boundary("train.stream_take", TRAIN, (SAGE,),
             (("repro.train.streaming", "StreamingLoader.take"),)),
    Boundary("train.link_batch", TRAIN, (REC,),
             (("repro.train.trainer", "sample_link_batch"),)),
    Boundary("sim.launch", TRAIN, (REC,),
             (("repro.sim.core", "Stream.launch"),)),
    Boundary("sim.record", TRAIN, (REC,),
             (("repro.sim.core", "Stream.record"),)),
    Boundary("hardware.clock_advance", TRAIN, (REC,),
             (("repro.hardware.clock", "SimClock.advance"),)),
    Boundary("telemetry.registry", TRAIN, (REC,), tuple(
        ("repro.telemetry.metrics", path)
        for path in (
            "MetricsRegistry.counter", "MetricsRegistry.gauge",
            "MetricsRegistry.histogram", "Counter.inc", "Gauge.set",
            "Histogram.observe",
        )
    )),
    Boundary("serve.serve", SERVE, ALL,
             (("repro.serve.engine", "InferenceEngine.serve"),)),
    Boundary("serve.batcher", SERVE, ALL,
             (("repro.serve.batcher", "MicroBatcher.next_batch"),)),
)


def _resolve(module: str, path: str):
    """``(owner, attribute)`` for ``module`` + dotted ``path``."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Counts and self-times calls into a set of boundaries."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = tuple(boundaries)
        #: boundary -> [calls, self nanoseconds]
        self.stats = {b.name: [0, 0] for b in self.boundaries}
        #: work counts recorded by observers (AppendUnique sizes)
        self.work = {"unique": 0, "appended": 0}
        self._stack: list[list[int]] = []
        self._open: set[str] = set()

    def _wrap(self, name: str, fn, observe):
        stats = self.stats[name]
        stack = self._stack
        open_names = self._open
        work = self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            open_names.add(name)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - t0
                stack.pop()
                open_names.discard(name)
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(work, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def install(self):
        """Patch every boundary for the duration of the ``with`` block."""
        patches = []
        try:
            for b in self.boundaries:
                for module, path in b.targets:
                    owner, attr = _resolve(module, path)
                    own = vars(owner)
                    patches.append((owner, attr, attr in own, own.get(attr)))
                    setattr(owner, attr, self._wrap(
                        b.name, getattr(owner, attr), b.observe
                    ))
            yield self
        finally:
            for owner, attr, had_own, original in reversed(patches):
                if had_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def snapshot(self) -> dict:
        """A copy of the counters so far."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "work": dict(self.work),
        }
