"""The pipeline runtime: dedicated stage threads, one queue per stage.

Each worker process is bound to one pipeline stage for life -- the model
of a media or packet pipeline where the decoder thread *is* the decoder.
Items flow stage to stage through per-stage queues, so the package's lock
footprint is one spinlock per stage rather than one global queue lock.

Safe-point semantics (see :meth:`PipelinePackage._stage_point`):

* a stage worker reaches a safe suspension point only when its stage
  queue has drained; mid-stream suspension would dam the pipe for every
  downstream stage;
* the first worker of each stage (indices ``0..n_stages-1``) is the stage
  *primary* and never suspends -- the runtime's declared floor is one
  worker per stage, reported to the server through the compliance
  telemetry;
* surplus workers suspend through the standard ``pc.suspend`` /
  ``pc.resume`` / ``pc.wake`` protocol, so the trace lint's pairing
  invariants hold exactly as for the task-queue runtime.

A target below the floor is adopted *at* the floor: the pipeline cannot
run narrower without stalling a stage entirely.  The residual overshoot
above the published target is reported as structural, and the
``compliance`` allocation policy charges it as uncontrolled load instead
of re-granting processors the pipeline can never release.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.kernel import Kernel, syscalls as sc
from repro.threads.package import SPIN_POLL_GAP, SPIN_POLL_MAX_GAP
from repro.threads.package import DeferredAdoptionPackage, ThreadsPackageConfig
from repro.threads.task import Task
from repro.threads.taskqueue import TaskQueue


class PipelinePackage(DeferredAdoptionPackage):
    """Run a :class:`~repro.apps.pipeline.PipelineApp` with stage threads."""

    runtime = "pipeline"

    def __init__(
        self,
        kernel: Kernel,
        app: Any,
        n_processes: int,
        config: Optional[ThreadsPackageConfig] = None,
    ) -> None:
        n_stages = getattr(app, "n_stages", None)
        if n_stages is None:
            raise ValueError(
                f"application {app.app_id!r} declares no stages; the "
                "pipeline runtime needs a PipelineApp-style application"
            )
        if n_processes < n_stages:
            raise ValueError(
                f"pipeline {app.app_id!r} has {n_stages} stages but only "
                f"{n_processes} workers; every stage needs a dedicated one"
            )
        self.n_stages = n_stages
        super().__init__(kernel, app, n_processes, config=config)
        #: Stage each worker index is bound to (round-robin, so the first
        #: n_stages workers are the per-stage primaries).
        self.stage_of = [
            index % n_stages for index in range(n_processes)
        ]

    @property
    def floor(self) -> int:
        """One worker per stage: narrower would stall a stage entirely."""
        return self.n_stages

    def _build_queues(self) -> TaskQueue:
        """One queue per stage; :attr:`queue` is stage 0, which feeds the
        pipe (aggregate accessors go through :meth:`queue_lock_stats`)."""
        self.stage_queues: List[TaskQueue] = [
            self._task_queue(f"stage{stage}") for stage in range(self.n_stages)
        ]
        return self.stage_queues[0]

    def queue_lock_stats(self) -> "tuple[int, int]":
        contended = holder_preempted = 0
        for queue in self.stage_queues:
            lock = queue.lock
            contended += lock.contended_acquisitions
            holder_preempted += lock.holder_preempted_encounters
        return contended, holder_preempted

    # ------------------------------------------------------------------
    # Worker program
    # ------------------------------------------------------------------

    def _worker_program(self, index: int):
        if index == 0:
            initial = yield from self._root_tasks()
            # Outstanding counts *items in flight*, not stage tasks.
            self._outstanding += len(initial)
            yield from self._locked_push(initial, queue=self.stage_queues[0])
        stage = self.stage_of[index]
        queue = self.stage_queues[stage]
        queue_items = queue._items
        backoff = SPIN_POLL_GAP
        controlled = self.config.control is not None
        stage_point = self._stage_point
        while True:
            if controlled:
                yield from stage_point(index)
            if self.finished:
                return
            item = None
            if queue_items:
                item = yield from self._locked_pop(queue=queue)
            if item is None:
                # Stage drained (or lost the race): spin-poll with backoff
                # like the busy-wait task-queue package.
                self.idle_poll_time += backoff
                yield sc.Compute(backoff)
                backoff = min(backoff * 2, SPIN_POLL_MAX_GAP)
                continue
            backoff = SPIN_POLL_GAP
            # Dynamic work joins the spawning worker's own stage.
            yield from self._run_body(item, spawn_queue=queue)
            yield from self._stage_done(item, stage)

    def _stage_point(self, index: int):
        """Per-iteration control point of stage worker *index*.

        Polling (pure IPC) is safe anywhere; *suspension* happens only
        when this worker's stage has drained, and never takes a stage's
        last worker.
        """
        if self.config.control is None or self.finished:
            return
        yield from self._poll_if_due()
        if self.stage_queues[self.stage_of[index]]._items:
            # Mid-stream: not a safe point for this worker.
            return
        control = self.control
        peer = control.unpark()
        if peer is not None:
            yield from self._resume(peer)
        pending = self.pending_target
        if pending is None or index < self.n_stages:
            # Stage primaries hold the floor; they never park.
            return
        effective = self._effective_target(pending)
        pid = self.worker_pids[index]
        if not control.park(pid, effective):
            return
        if control.runnable_workers <= effective:
            # Counting ourselves out made the pool conform: the floored
            # target is adopted.
            control.target = effective
            self.pending_target = None
            self.tracker.note_conformed(control.runnable_workers, self.kernel.now)
        yield from self._sleep_parked(pid)

    # ------------------------------------------------------------------
    # Stage execution
    # ------------------------------------------------------------------

    def _stage_done(self, task: Task, stage: int):
        """Hand the item to the next stage, or retire it after the last."""
        follow = self.app.next_stage_task(task, stage)
        if follow is not None:
            yield from self._locked_push(
                [follow], queue=self.stage_queues[stage + 1]
            )
            return
        # The item cleared the last stage.
        if task.meta:
            self._note_service_completion(task)
        self._outstanding -= 1
        if self._outstanding == 0:
            yield from self._finish()

    def _finish(self):
        """Run by whichever worker drains the last item's last stage."""
        self._mark_finished()
        # No poison tasks: workers exit on the finished flag.
        yield from self._wake_suspended()
