"""The WholeGraph training iteration (paper Fig. 1 reworked onto GPUs).

One iteration on one GPU rank:

1. **sample** — multi-layer GPU neighbor sampling + AppendUnique over the
   multi-GPU graph store (all on-device, peer reads over NVLink);
2. **gather** — one global-gather kernel pulls the input frontier's
   features out of the distributed shared memory;
3. **train** — forward, backward, gradient all-reduce, optimizer step.

Each phase advances the rank's simulated clock under its phase label;
Fig. 9/11/12 are read off the resulting timeline.

:func:`run_iteration` runs one such iteration back-to-back on one rank.
The epoch loops instead drive a *loader* (:class:`BatchLoader`): it
stages each batch's sampled subgraph and features, and charges the train
time the way its schedule does:

- :class:`SequentialLoader` — sample, gather and train back-to-back
  (total = sum of the phases);
- :class:`PipelinedExecutor` — double-buffered: while batch *i* trains,
  batch *i+1*'s sample+gather runs concurrently, so the steady-state
  per-iteration time is ``max(train_i, sample_{i+1} + gather_{i+1})``;
- :class:`~repro.train.streaming.StreamingLoader` — out-of-core: tier
  transfers ride a host stream several batches ahead.

The functional math is identical under every loader — the models, losses
and trained weights are bit-for-bit the same when sampling and dropout
draw from separate streams (each loader consumes both in batch order).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.ops.neighbor_sampler import NeighborSampler, SampledSubgraph
from repro.sim import join
from repro.telemetry import metrics
from repro.train.metrics import PhaseTimes, accuracy


@dataclass
class IterationResult:
    """Everything one training iteration produced."""

    loss: float
    batch_accuracy: float
    times: PhaseTimes
    subgraph: SampledSubgraph
    num_input_nodes: int


def sample_and_gather(
    store,
    sampler: NeighborSampler,
    seeds: np.ndarray,
    rank: int,
    rng: np.random.Generator,
    sample_phase: str = "sample",
    gather_phase: str = "gather",
) -> tuple[SampledSubgraph, np.ndarray, float, float]:
    """The data-preparation half of an iteration on ``rank``.

    Returns ``(subgraph, gathered features, sample time, gather time)``;
    both phases advance ``rank``'s clock under their own labels.
    """
    clock = store.node.gpu_clock[rank]
    t0 = clock.now
    subgraph = sampler.sample(seeds, rank, rng, phase=sample_phase)
    t1 = clock.now
    x_np = store.gather_features(
        subgraph.input_nodes, rank, phase=gather_phase
    )
    t2 = clock.now
    reg = metrics.get_registry()
    reg.counter("phase_seconds_total", phase=sample_phase).inc(t1 - t0)
    reg.counter("phase_seconds_total", phase=gather_phase).inc(t2 - t1)
    return subgraph, x_np, t1 - t0, t2 - t1


def train_batch(
    model,
    subgraph: SampledSubgraph,
    x_np: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator | None = None,
    optimizer=None,
    compute_grads: bool | None = None,
) -> tuple[float, float]:
    """The compute half: forward (+ backward + step) on gathered features.

    Purely functional — charges no clocks; callers account the simulated
    train time themselves (sequentially via ``estimate_train_time`` or
    overlapped in the pipelined schedule).  Returns ``(loss, accuracy)``.
    """
    if compute_grads is None:
        compute_grads = optimizer is not None
    x = Tensor(x_np)
    logits = model(subgraph, x, rng if compute_grads else None)
    loss = F.cross_entropy(logits, labels)
    if compute_grads:
        model.zero_grad()
        loss.backward()
        if optimizer is not None:
            optimizer.step()
    return float(loss.data), accuracy(logits.data, labels)


def run_iteration(
    store,
    sampler: NeighborSampler,
    model,
    seeds: np.ndarray,
    rank: int,
    rng: np.random.Generator,
    optimizer=None,
    charge_train: bool = True,
    compute_grads: bool | None = None,
    train_time_factor: float = 1.0,
    model_rng: np.random.Generator | None = None,
) -> IterationResult:
    """Run one mini-batch iteration on ``rank`` (sequential schedule).

    ``optimizer`` given: backward + step.  ``compute_grads=True`` without an
    optimizer: backward only (the DDP path, which steps after the gradient
    all-reduce).  Neither: pure inference (evaluation path).  ``model_rng``
    gives dropout its own stream (defaults to ``rng`` — the legacy shared
    stream); the pipelined schedule relies on the split so both schedules
    consume each stream in the same order.  The returned phase times are the
    clock deltas this iteration added on ``rank``.
    """
    if compute_grads is None:
        compute_grads = optimizer is not None
    node = store.node
    clock = node.gpu_clock[rank]

    t0 = clock.now
    subgraph, x_np, t_sample, t_gather = sample_and_gather(
        store, sampler, seeds, rank, rng
    )
    labels = store.labels[seeds]
    loss, batch_acc = train_batch(
        model, subgraph, x_np, labels,
        rng=model_rng if model_rng is not None else rng,
        optimizer=optimizer, compute_grads=compute_grads,
    )
    if charge_train:
        clock.advance(
            model.estimate_train_time(subgraph) * train_time_factor,
            phase="train", category="compute",
            args={"edges": subgraph.total_edges(),
                  "input_nodes": int(subgraph.input_nodes.shape[0])},
        )
    t3 = clock.now
    reg = metrics.get_registry()
    reg.counter("iterations_total", schedule="sequential").inc(1)
    reg.counter("phase_seconds_total", phase="train").inc(
        t3 - t0 - t_sample - t_gather
    )

    return IterationResult(
        loss=loss,
        batch_accuracy=batch_acc,
        times=PhaseTimes(
            sample=t_sample, gather=t_gather,
            train=t3 - t0 - t_sample - t_gather,
        ),
        subgraph=subgraph,
        num_input_nodes=int(subgraph.input_nodes.shape[0]),
    )


def train_step(loader, model, labels: np.ndarray,
               model_rng: np.random.Generator | None,
               cost_factor: float = 1.0) -> tuple[float, float]:
    """Train ``loader``'s next batch: forward + backward, no optimizer step.

    The simulated train time (``estimate_train_time * cost_factor``) is
    charged the way the loader's schedule charges it.  Returns ``(loss,
    train seconds)``; the train seconds are the producer window of the
    gradient sync that follows.
    """
    subgraph, x_np = loader.next()
    loss, _ = train_batch(
        model, subgraph, x_np, labels, rng=model_rng, compute_grads=True
    )
    return loss, loader.charge_train(
        model.estimate_train_time(subgraph) * cost_factor
    )


def train_span_args(subgraph: SampledSubgraph) -> dict:
    """Trace args of a train span: the batch's edge and input-node counts."""
    return {"edges": subgraph.total_edges(),
            "input_nodes": int(subgraph.input_nodes.shape[0])}


class BatchLoader:
    """The schedule interface the epoch loops drive.

    An epoch loop hands the loader its batches once (:meth:`start`), runs
    the prologue (:meth:`prime`), then per batch calls :meth:`next` for the
    staged ``(subgraph, features)`` — which also issues the prefetch of a
    later batch — and :meth:`charge_train` to put that batch's train time
    on the clocks.  Subclasses provide ``prefetch``/``take``/
    ``charge_train``; every prefetched sample/gather second is added to
    :attr:`times`.
    """

    #: batches kept in flight ahead of the one training
    prefetch_depth = 0
    #: whether the single-node loop aligns every device (host included)
    #: after the prologue and after each iteration
    barrier = True

    def start(self, batches, rng: np.random.Generator,
              times: PhaseTimes | None = None) -> None:
        """Queue ``batches`` (sampled with ``rng``, in order); phase
        seconds go to ``times`` when given."""
        self._pending = deque(batches)
        self._rng = rng
        self._primed = False
        if times is not None:
            self.times = times

    def prime(self) -> None:
        """The prologue: prefetch the first ``prefetch_depth`` batches."""
        self._primed = True
        for _ in range(min(self.prefetch_depth, len(self._pending))):
            self._issue()

    def next(self) -> tuple[SampledSubgraph, np.ndarray]:
        """Take the oldest staged batch and prefetch the next queued one.

        Runs the prologue first if :meth:`prime` was not called.
        """
        if not self._primed:
            self.prime()
        staged = self.take()
        self.last_prefetch = self._issue() if self._pending else 0.0
        return staged

    def _issue(self) -> float:
        return self.prefetch(self._pending.popleft(), self._rng)


class SequentialLoader(BatchLoader):
    """The sequential schedule: no prefetch.

    Each batch is sampled and gathered on ``rank`` when it is taken; after
    it trains, the other ranks are charged the same sample, gather and
    train durations (the SPMD-symmetric approximation) — per iteration the
    phases add up instead of overlapping.
    """

    def __init__(self, store, sampler: NeighborSampler, rank: int = 0):
        self.store = store
        self.sampler = sampler
        self.rank = rank
        self.node = store.node
        self.times = PhaseTimes()
        self._staged: tuple[SampledSubgraph, np.ndarray] | None = None
        #: sample/gather durations of the most recent prefetch
        self.last_sample_time = 0.0
        self.last_gather_time = 0.0

    def prefetch(self, seeds: np.ndarray, rng: np.random.Generator) -> float:
        """Sample+gather ``seeds`` on ``rank`` into the staging buffer;
        returns the sample+gather duration."""
        if self._staged is not None:
            raise RuntimeError("staging buffer full — take() the batch first")
        self._t0 = self.node.gpu_clock[self.rank].now
        sg, x_np, t_sample, t_gather = sample_and_gather(
            self.store, self.sampler, seeds, self.rank, rng
        )
        self._staged = (sg, x_np)
        self.last_sample_time = t_sample
        self.last_gather_time = t_gather
        self.times += PhaseTimes(sample=t_sample, gather=t_gather)
        return t_sample + t_gather

    def take(self) -> tuple[SampledSubgraph, np.ndarray]:
        """Pop the staged (subgraph, features) pair for training."""
        if self._staged is None:
            raise RuntimeError("nothing staged — call prefetch() first")
        staged, self._staged = self._staged, None
        self._subgraph = staged[0]
        return staged

    def next(self) -> tuple[SampledSubgraph, np.ndarray]:
        """Sample and gather the next batch now, then take it."""
        self._issue()
        return self.take()

    def charge_train(self, train_time: float) -> float:
        """Charge the train phase behind the batch's sample+gather.

        Returns the train seconds as the rank's clock delta (what the
        other ranks are charged and the phase totals record).
        """
        node = self.node
        clock = node.gpu_clock[self.rank]
        clock.advance(
            train_time, phase="train", category="compute",
            args=train_span_args(self._subgraph),
        )
        t_sample, t_gather = self.last_sample_time, self.last_gather_time
        train = clock.now - self._t0 - t_sample - t_gather
        reg = metrics.get_registry()
        reg.counter("iterations_total", schedule="sequential").inc(1)
        reg.counter("phase_seconds_total", phase="train").inc(train)
        for r in range(node.num_gpus):
            if r == self.rank:
                continue
            clk = node.gpu_clock[r]
            clk.advance(t_sample, phase="sample")
            clk.advance(t_gather, phase="gather")
            clk.advance(train, phase="train")
        return train


class PipelinedExecutor(SequentialLoader):
    """Double-buffered sample+gather prefetch over one store/sampler pair.

    Drives the Fig. 1 loop with software pipelining: batch *i+1* is
    sampled and gathered while batch *i* trains.  The prefetch charges the
    ``sample``/``gather`` phases on the main clock (the copy/compute
    engines share the GPU's timeline) and launches the same durations on
    the other ranks' compute streams; the train compute of the batch taken
    before it then only pays ``max(0, train - prefetch)`` — together that
    models the steady state ``max(train_i, sample_{i+1}+gather_{i+1})`` per
    iteration.
    """

    prefetch_depth = 1
    # take the staged batch, then prefetch the following one
    next = BatchLoader.next

    def prefetch(self, seeds: np.ndarray, rng: np.random.Generator) -> float:
        """Sample+gather ``seeds`` into the staging buffer, charging the
        same durations to all other ranks; returns the prefetch duration."""
        prefetch_time = super().prefetch(seeds, rng)
        streams = self.node.streams
        for r in range(self.node.num_gpus):
            if r == self.rank:
                continue
            stream = streams.compute(r)
            stream.launch(self.last_sample_time, phase="sample")
            stream.launch(self.last_gather_time, phase="gather")
        return prefetch_time

    def charge_train(self, train_time: float) -> float:
        """Charge the exposed tail of an overlapped train phase.

        The train compute ran concurrently with the prefetch issued by the
        same :meth:`next`, which already advanced the clock, so only
        ``max(0, train - prefetch)`` is launched on the compute streams.
        Returns the full train time.
        """
        exposed = max(0.0, train_time - self.last_prefetch)
        streams = self.node.streams
        for r in range(self.node.num_gpus):
            streams.compute(r).launch(
                exposed, phase="train", category="compute",
                args={"train_time": train_time,
                      "hidden_by_prefetch": train_time - exposed},
            )
        reg = metrics.get_registry()
        reg.counter("iterations_total", schedule="pipelined").inc(1)
        reg.counter("phase_seconds_total", phase="train").inc(train_time)
        reg.counter("overlap_hidden_seconds_total").inc(
            train_time - exposed
        )
        return train_time


# ---------------------------------------------------------------------------
# Bucketed gradient-synchronisation overlap engine (paper §III-D)
# ---------------------------------------------------------------------------
# Apex-style DDP launches one ring all-reduce per gradient *bucket*, as soon
# as the backward pass has produced the bucket's last gradient.  The comm
# stream therefore runs concurrently with the tail of backward compute; only
# whatever is still in flight when backward finishes is *exposed* on the
# iteration's critical path.  ``plan_grad_sync`` computes that schedule in
# time relative to the sync point (t=0 == the slowest rank's backward end);
# ``charge_grad_sync`` stamps it onto the simulated clocks and timeline.


@dataclass(frozen=True)
class GradSyncPlan:
    """Comm-stream schedule of one bucketed gradient synchronisation.

    All times are seconds relative to the *sync point*: the instant the
    slowest producing rank finishes its backward pass.  Bucket ``j``'s
    all-reduce occupies ``(starts[j], ends[j])`` on the (serial) comm
    stream; starts are <= 0 when the launch was hidden behind backward.
    """

    bucket_nbytes: tuple[int, ...]
    bucket_times: tuple[float, ...]
    starts: tuple[float, ...] = field(default=())
    ends: tuple[float, ...] = field(default=())
    exposed: float = 0.0

    @property
    def num_buckets(self) -> int:
        return len(self.bucket_nbytes)

    @property
    def total_comm(self) -> float:
        """Comm-stream busy time of the whole synchronisation."""
        return float(sum(self.bucket_times))

    @property
    def hidden(self) -> float:
        """Comm time overlapped with (hidden behind) backward compute."""
        return self.total_comm - self.exposed


def plan_grad_sync(
    bucket_nbytes: list[int] | tuple[int, ...],
    bucket_times: list[float] | tuple[float, ...],
    producers: list[tuple[float, float]] | None = None,
) -> GradSyncPlan:
    """Schedule one bucketed all-reduce against the backward window.

    ``producers`` lists the replicas producing gradients, each as
    ``(end_offset, window)``: the offset (<= 0) of that replica's backward
    end relative to the sync point, and the backward duration ``window``.
    Gradients are modelled as produced linearly across the window in bucket
    order (reverse parameter order), so bucket ``j`` — covering a cumulative
    byte fraction ``f_j`` of the model — is ready on a replica at
    ``end - window * (1 - f_j)``; the collective can launch once *every*
    replica has it ready.  The comm stream is serial: bucket ``j`` starts at
    ``max(ready_j, end_{j-1})``.  ``exposed`` is the schedule tail past the
    sync point — with no producers (or zero windows) everything is exposed,
    which is exactly the flat/non-overlapped baseline.
    """
    k = len(bucket_nbytes)
    if k == 0:
        return GradSyncPlan((), ())
    if len(bucket_times) != k:
        raise ValueError("bucket_nbytes and bucket_times length mismatch")
    if not producers:
        producers = [(0.0, 0.0)]
    total = float(sum(bucket_nbytes))
    # the serial comm stream, in sync-point-relative time: each bucket
    # starts behind its readiness floor and the previous bucket's end.
    # Planning relative and committing absolute keeps the floats exact:
    # subtracting absolute timestamps would drift in the last ulp.
    starts: list[float] = []
    ends: list[float] = []
    free = -float("inf")
    cum = 0.0
    for j in range(k):
        cum += bucket_nbytes[j]
        frac = cum / total if total > 0 else 1.0
        ready = max(end - w * (1.0 - frac) for end, w in producers)
        start = max(ready, free)
        free = start + bucket_times[j]
        starts.append(start)
        ends.append(free)
    return GradSyncPlan(
        bucket_nbytes=tuple(int(b) for b in bucket_nbytes),
        bucket_times=tuple(float(t) for t in bucket_times),
        starts=tuple(starts),
        ends=tuple(ends),
        exposed=max(0.0, free),
    )


def charge_grad_sync(
    nodes,
    plan: GradSyncPlan,
    phase: str = "allreduce",
    wait_phase: str = "allreduce_wait",
) -> float:
    """Stamp a :class:`GradSyncPlan` onto the simulated clocks.

    The compute streams of every GPU of ``nodes`` (one :class:`SimNode` or
    a list of them) first :func:`~repro.sim.join` — the collective's entry
    barrier, recorded as the distinct non-busy ``wait_phase`` — then each
    launches the plan's *exposed* tail behind the barrier event: the hidden
    portion already ran under the backward compute that the producing
    clocks charged.  The full bucket-by-bucket schedule is committed onto
    each node's ``<gpu0>/nccl`` comm-stream lane so the overlap is visible
    in the Chrome trace.  Returns the sync-point time.
    """
    node_list = nodes if isinstance(nodes, (list, tuple)) else [nodes]
    compute = [
        n.streams.compute(r)
        for n in node_list
        for r in range(n.num_gpus)
    ]
    barrier = join(compute, phase=wait_phase, category="comm")
    sync_point = barrier.time
    span_args = {
        "buckets": plan.num_buckets,
        "total_comm_us": round(plan.total_comm / 1e-6, 3),
        "hidden_us": round(plan.hidden / 1e-6, 3),
    }
    if plan.exposed > 0.0:
        for stream in compute:
            stream.launch(plan.exposed, deps=[barrier], phase=phase,
                          category="comm", args=span_args)
    for n in node_list:
        lane = n.streams.comm(0)
        for j in range(plan.num_buckets):
            start = sync_point + plan.starts[j]
            end = sync_point + plan.ends[j]
            if end <= start:
                continue
            # per-bucket exposed/hidden split in plan-relative time: the
            # portion of (starts[j], ends[j]) past the sync point is exposed
            exposed_j = max(0.0, plan.ends[j]) - max(0.0, plan.starts[j])
            lane.record(
                max(0.0, start), max(0.0, end),
                phase="allreduce_bucket", category="comm",
                args={"bucket": j, "nbytes": plan.bucket_nbytes[j],
                      "hidden": plan.ends[j] <= 0.0,
                      "exposed_s": exposed_j,
                      "hidden_s": plan.bucket_times[j] - exposed_j},
            )
    reg = metrics.get_registry()
    reg.counter("phase_seconds_total", phase=phase).inc(plan.exposed)
    reg.counter("grad_sync_comm_seconds_total").inc(plan.total_comm)
    reg.counter("grad_sync_exposed_seconds_total").inc(plan.exposed)
    reg.counter("grad_sync_hidden_seconds_total").inc(plan.hidden)
    for nbytes in plan.bucket_nbytes:
        reg.histogram("grad_bucket_bytes").observe(float(nbytes))
    return sync_point
