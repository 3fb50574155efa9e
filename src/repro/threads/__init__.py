"""The task-queue threads package (Brown University Threads analogue).

The paper's applications are written against a user-level threads package:
the programmer splits work into *tasks* (user-level threads), worker
*processes* pick tasks off a shared queue and run them, and -- after the
paper's modification -- the package transparently suspends and resumes
worker processes at safe points (between tasks) to track the process-count
target published by the central server.  "The interface to the threads
commands was not changed when process control was added" (Section 5); here,
the same :class:`ThreadsPackage` runs applications with control enabled or
disabled via configuration only.

Public API
----------

- :class:`~repro.threads.task.Task` and :func:`~repro.threads.task.compute_task`
- :class:`~repro.threads.task.SpawnTask` -- in-task dynamic task creation
- :class:`~repro.threads.taskqueue.TaskQueue`
- :class:`~repro.threads.package.ThreadsPackage` /
  :class:`~repro.threads.package.ThreadsPackageConfig`
- :class:`~repro.threads.control.ControlState` -- per-application process
  control bookkeeping.
"""

from repro.threads.task import SpawnTask, Task, compute_task
from repro.threads.taskqueue import TaskQueue
from repro.threads.control import ControlState
from repro.threads.package import ThreadsPackage, ThreadsPackageConfig
from repro.threads.forkjoin import ForkJoinPackage
from repro.threads.pipeline import PipelinePackage

#: Runtime name -> package class (the scenario layer's dispatch table), in
#: the order docs/RUNTIMES.md documents them.
PACKAGE_CLASSES = {
    ThreadsPackage.runtime: ThreadsPackage,
    ForkJoinPackage.runtime: ForkJoinPackage,
    PipelinePackage.runtime: PipelinePackage,
}

#: Names of the runtimes a scenario can place a tenant on.
RUNTIME_NAMES = tuple(PACKAGE_CLASSES)


def make_package(runtime, kernel, app, n_processes, config=None):
    """Build the package for *runtime* (``"taskqueue"`` is the default)."""
    try:
        package_class = PACKAGE_CLASSES[runtime or "taskqueue"]
    except KeyError:
        raise ValueError(
            f"unknown runtime {runtime!r}; expected one of {RUNTIME_NAMES}"
        ) from None
    return package_class(kernel, app, n_processes, config=config)


__all__ = [
    "Task",
    "SpawnTask",
    "compute_task",
    "TaskQueue",
    "ControlState",
    "RUNTIME_NAMES",
    "PACKAGE_CLASSES",
    "make_package",
    "ThreadsPackage",
    "ThreadsPackageConfig",
    "ForkJoinPackage",
    "PipelinePackage",
]
