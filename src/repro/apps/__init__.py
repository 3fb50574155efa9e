"""The paper's benchmark applications (Section 6), task-queue style.

All four applications from the paper's evaluation, expressed against the
threads package exactly as the paper describes them -- "the application
programmer breaks parts of his problem up into threads" -- plus synthetic
applications used by the ablation benchmarks.

- :class:`~repro.apps.matmul.MatMul` -- row-partitioned matrix multiply
  (single phase, embarrassingly parallel, light locking).
- :class:`~repro.apps.fft.FFT` -- Norton/Silberger-style 1-D FFT: log-many
  phases of parallel loop pieces separated by phase barriers.
- :class:`~repro.apps.sort.MergeSort` -- parallel heapsort of sublists,
  then a pairwise merge tree with shrinking parallelism.
- :class:`~repro.apps.gauss.Gauss` -- Gaussian elimination with partial
  pivoting: alternating serial pivot and parallel elimination phases.
- :mod:`~repro.apps.synthetic` -- parameterized uniform / barrier-heavy /
  critical-section-heavy applications for ablations.
- :class:`~repro.apps.locks.LockSaturationApp` -- think/critical-section
  iterations on one shared lock; exhibits throughput collapse past the
  saturation knee (the lock-restriction experiment's workload).
- :class:`~repro.apps.service.ServiceApp` -- an open-arrival
  request-serving tenant: requests arrive on their own clock and carry
  tail-latency objectives.
- :class:`~repro.apps.pipeline.PipelineApp` -- a streaming pipeline whose
  items pass fixed stages in order (the dedicated-stage-thread runtime's
  native workload; also runnable task-queue style for comparisons).
- :class:`~repro.apps.templates.AppTemplate` -- any of the above named as
  data (template name, id, seed, workload fields); calling it builds a
  fresh application.

Applications are deterministic given their ``seed``; per-task cost jitter
models data-dependent work without breaking reproducibility.
"""

from repro.apps.base import Application, PhasedApplication
from repro.apps.matmul import MatMul
from repro.apps.fft import FFT
from repro.apps.sort import MergeSort
from repro.apps.gauss import Gauss
from repro.apps.quicksort import QuickSort
from repro.apps.jacobi import Jacobi
from repro.apps.synthetic import BarrierHeavyApp, CriticalSectionApp, UniformApp
from repro.apps.locks import LockSaturationApp
from repro.apps.service import ServiceApp, ServiceProfile
from repro.apps.pipeline import PipelineApp
from repro.apps.templates import AppTemplate

__all__ = [
    "Application",
    "PhasedApplication",
    "MatMul",
    "FFT",
    "MergeSort",
    "Gauss",
    "QuickSort",
    "Jacobi",
    "UniformApp",
    "BarrierHeavyApp",
    "CriticalSectionApp",
    "LockSaturationApp",
    "ServiceApp",
    "ServiceProfile",
    "PipelineApp",
    "AppTemplate",
]
