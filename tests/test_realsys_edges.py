"""Edge cases of the real-process control plane.

Covers the corners the basic realsys suite leaves open: controllers with
no registered pools, worker death mid-task, shrinking the target all the
way to the starvation floor, the suspension/resume counters the co-sim
oracle reads, control calls on an unstarted pool, the spawn start method,
and the timeline sampler's empty/merged views.
"""

import multiprocessing as mp
import os
import time

import pytest

from repro.realsys import CentralController, ControlledPool, TimelineSampler
from repro.realsys import tasks


def wait_until(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def die_now() -> None:
    """A task that kills its own worker process mid-task."""
    os._exit(3)


class TestEmptyController:
    def test_compute_targets_with_no_pools(self):
        controller = CentralController(interval=0.05, n_cpus=4)
        assert controller.compute_targets() == {}

    def test_update_once_with_no_pools(self):
        controller = CentralController(interval=0.05, n_cpus=4)
        assert controller.update_once() == {}
        assert controller.updates == 1
        assert controller.history[-1][1] == {}

    def test_register_then_unregister_returns_to_empty(self):
        controller = CentralController(interval=0.05, n_cpus=4)
        pool = ControlledPool(n_workers=2, name="only")
        pool.start()
        try:
            controller.register(pool)
            assert controller.compute_targets() == {"only": 2}
            controller.unregister(pool)
            assert controller.compute_targets() == {}
        finally:
            pool.shutdown()

    def test_background_loop_with_no_pools_is_harmless(self):
        controller = CentralController(interval=0.01, n_cpus=2)
        controller.start()
        try:
            assert wait_until(lambda: controller.updates >= 2)
        finally:
            controller.stop()
        controller.stop()  # idempotent


class TestWorkerDeath:
    def test_pool_survives_worker_death_mid_task(self):
        """One worker dies inside a task; the others finish the queue."""
        pool = ControlledPool(n_workers=3, name="mortal")
        pool.start()
        try:
            assert pool.alive_workers == 3
            pool.submit(die_now, ())
            ids = pool.submit_many([(tasks.sum_squares, (500,))] * 12)
            assert wait_until(lambda: pool.alive_workers == 2)
            results = pool.join_results(12, timeout=60.0)
            assert set(results) == set(ids)
            assert pool.alive_workers == 2
        finally:
            pool.shutdown()

    def test_alive_workers_zero_after_shutdown(self):
        pool = ControlledPool(n_workers=2, name="done")
        pool.start()
        pool.shutdown()
        assert pool.alive_workers == 0


class TestShrinkToFloor:
    def test_target_shrinks_to_one_and_counts_suspensions(self):
        pool = ControlledPool(n_workers=4, name="floor")
        pool.start()
        try:
            assert pool.suspensions == 0 and pool.resumes == 0
            pool.set_target(1)
            pool.submit_many([(tasks.sum_squares, (2000,))] * 40)
            assert wait_until(lambda: pool.runnable_workers == 1)
            # Exactly three workers had to park to reach the floor.
            assert pool.suspensions >= 3
            pool.set_target(4)
            assert wait_until(lambda: pool.runnable_workers == 4)
            assert pool.resumes >= 3
            pool.join_results(40, timeout=60.0)
        finally:
            pool.shutdown()

    def test_counters_default_before_start(self):
        pool = ControlledPool(n_workers=2, name="unstarted")
        assert pool.suspensions == 0
        assert pool.resumes == 0
        assert pool.alive_workers == 0

    def test_control_calls_before_start_name_the_misuse(self):
        pool = ControlledPool(n_workers=2, name="x")
        with pytest.raises(RuntimeError, match="pool 'x' is not running"):
            pool.set_target(1)
        with pytest.raises(RuntimeError, match="pool 'x' is not running"):
            pool.join_results(1, timeout=0.1)


class TestSpawnStartMethod:
    def test_spawned_workers_share_the_parents_control_block(self):
        # A spawned worker unpickles the control block.  It must rebuild
        # it around the parent's shared arrays: a private copy would let
        # every worker run on, with nothing parked that the parent sees.
        pool = ControlledPool(
            n_workers=3, name="spawned", ctx=mp.get_context("spawn")
        )
        pool.start()
        try:
            pool.set_target(1)
            ids = pool.submit_many([(tasks.sum_squares, (2000,))] * 12)
            assert set(pool.join_results(12, timeout=60.0)) == set(ids)
            assert pool.suspensions >= 1
            assert wait_until(lambda: pool.runnable_workers == 1)
            # Every transition ran under one lock: no count was lost.
            assert pool.suspensions - pool.resumes == 2
        finally:
            started = time.monotonic()
            pool.shutdown()
            elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"shutdown took {elapsed:.2f}s"


class TestTimelineSampler:
    def test_empty_sampler(self):
        sampler = TimelineSampler(interval=0.01)
        assert sampler.total_series() == []
        assert sampler.render() == "(no samples)"

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            TimelineSampler(interval=0)

    def test_double_start_rejected_and_stop_idempotent(self):
        sampler = TimelineSampler(interval=0.01)
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()
        sampler.stop()
        sampler.stop()

    def test_samples_and_merges_pools(self):
        sampler = TimelineSampler(interval=0.01)
        a = ControlledPool(n_workers=2, name="sa")
        b = ControlledPool(n_workers=1, name="sb")
        a.start()
        b.start()
        sampler.watch(a)
        sampler.watch(b)
        sampler.start()
        try:
            assert wait_until(
                lambda: len(sampler.samples["sa"]) >= 3
                and len(sampler.samples["sb"]) >= 3
            )
        finally:
            sampler.stop()
            a.shutdown()
            b.shutdown()
        total = sampler.total_series()
        assert total and all(count == 3 for _, count in total)
        rendered = sampler.render()
        assert "sa" in rendered and "sb" in rendered


class TestShutdownRace:
    def test_shutdown_never_strands_a_worker_parking_at_start_up(self):
        # The target cut makes two workers park at their first safe point
        # while shutdown sets its flag and wakes the parked FIFO.  A worker
        # that misses the wakeup sleeps until the join timeout; a healthy
        # shutdown takes a few tens of milliseconds.
        for cycle in range(50):
            pool = ControlledPool(n_workers=4, name=f"race{cycle}")
            pool.start()
            pool.set_target(2)
            started = time.monotonic()
            pool.shutdown(timeout=3)
            elapsed = time.monotonic() - started
            assert elapsed < 1.0, f"cycle {cycle}: shutdown took {elapsed:.2f}s"
