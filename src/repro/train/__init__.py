"""Mini-batch GNN training on the multi-GPU shared-memory store.

- :mod:`repro.train.pipeline` — the per-iteration sample → append-unique →
  gather → train pipeline with per-phase simulated timing, and the
  sequential / double-buffered schedule loaders;
- :mod:`repro.train.trainer` — the WholeGraph trainer (paper §III-D
  training flow): model state, evaluation, run reports;
- :mod:`repro.train.plans` — composable parallelism plans (data-parallel,
  GNNPipe-style pipelined model parallelism, hybrid, CAGNET full-graph),
  each owning its epoch loop;
- :mod:`repro.train.streaming` — the out-of-core streaming prefetch loader
  (host-stream tier transfers, exposed-tail-only charging);
- :mod:`repro.train.ddp` — data-parallel gradient synchronisation;
- :mod:`repro.train.metrics` — accuracy and epoch statistics.
"""

from repro.train.pipeline import IterationResult, run_iteration
from repro.train.trainer import WholeGraphTrainer, EpochStats
from repro.train.streaming import StreamingLoader
from repro.train.ddp import DistributedDataParallel
from repro.train.metrics import accuracy
from repro.train.plans import (
    CagnetFullGraphPlan,
    DataParallelPlan,
    HybridParallelPlan,
    ParallelismPlan,
    PipelineParallelPlan,
)

__all__ = [
    "IterationResult",
    "run_iteration",
    "WholeGraphTrainer",
    "EpochStats",
    "StreamingLoader",
    "DistributedDataParallel",
    "accuracy",
    "ParallelismPlan",
    "DataParallelPlan",
    "PipelineParallelPlan",
    "HybridParallelPlan",
    "CagnetFullGraphPlan",
]
