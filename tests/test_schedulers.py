"""Tests for the alternative kernel scheduling policies (the related work
of Section 3 and the Section 7 space partitioning)."""

from collections import deque

import pytest

from repro.kernel import syscalls as sc
from repro.kernel.process import ProcessState
from repro.kernel.scheduler import (
    AffinityScheduler,
    CoschedulingScheduler,
    FifoScheduler,
    GroupPolicy,
    NoPreemptAwareScheduler,
    PriorityDecayScheduler,
    ProcessGroupScheduler,
    SpacePartitionScheduler,
)
from repro.kernel.scheduler.partition import SYSTEM_GROUP, compute_partitions
from repro.sim import units
from repro.sync import SpinLock
from repro.workloads import SCHEDULER_NAMES, make_scheduler

from tests.conftest import make_kernel


def cpu_bound(duration, chunk=units.ms(5)):
    def program():
        remaining = duration
        while remaining > 0:
            step = min(chunk, remaining)
            remaining -= step
            yield sc.Compute(step)

    return program()


class TestRegistry:
    def test_all_names_buildable(self):
        for name in SCHEDULER_NAMES:
            assert make_scheduler(name) is not None

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("round-robin-deluxe")

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_every_policy_runs_a_workload(self, name):
        kernel = make_kernel(n_processors=2, policy=make_scheduler(name))
        procs = [
            kernel.spawn(cpu_bound(units.ms(50)), name=f"p{i}", app_id=f"app{i % 2}")
            for i in range(4)
        ]
        kernel.run_until_quiescent(max_time=units.seconds(60))
        assert all(p.state is ProcessState.TERMINATED for p in procs)


class RemoveCountingDeque(deque):
    removes = 0

    def remove(self, value):
        self.removes += 1
        super().remove(value)


class TestFifo:
    def test_exit_scans_the_queue_only_for_a_queued_process(self):
        policy = FifoScheduler()
        policy._queue = RemoveCountingDeque()
        kernel = make_kernel(n_processors=1, quantum=units.ms(10), policy=policy)
        procs = [
            kernel.spawn(cpu_bound(units.ms(30)), name=f"p{i}") for i in range(3)
        ]
        seen = {}

        def kill_ready_victim():
            victim = procs[2]
            seen["state"] = victim.state
            kernel.kill(victim.pid)
            seen["census"] = policy.queued_census()

        kernel.engine.schedule(units.ms(15), kill_ready_victim, "kill")
        kernel.run_until_quiescent(max_time=units.seconds(1))

        assert seen["state"] is ProcessState.READY
        assert procs[2].pid not in seen["census"]
        assert procs[0].pid in seen["census"]
        assert all(p.state is ProcessState.TERMINATED for p in procs)
        # Only the killed READY process was on the queue at its exit; the
        # two that finished on the CPU cost no scan.
        assert policy._queue.removes == 1
        assert policy.queue_length() == 0 and policy._queued == {}


class TestPriorityDecay:
    def test_fresh_process_preferred(self):
        kernel = make_kernel(
            n_processors=1,
            quantum=units.ms(5),
            policy=PriorityDecayScheduler(half_life=units.seconds(10)),
        )
        old = kernel.spawn(cpu_bound(units.ms(100)), name="old")
        finished = {}
        kernel.exit_listeners.append(
            lambda p: finished.setdefault(p.name, kernel.now)
        )
        # Spawn a newcomer after the old process has accumulated usage.
        kernel.engine.schedule(
            units.ms(50),
            lambda: kernel.spawn(cpu_bound(units.ms(30)), name="new"),
        )
        kernel.run_until_quiescent()
        # The newcomer, favoured by decay, finishes before the old one.
        assert finished["new"] < finished["old"]

    def test_validation(self):
        with pytest.raises(ValueError):
            PriorityDecayScheduler(half_life=0)


class TestCoscheduling:
    def test_gang_members_run_together(self):
        kernel = make_kernel(
            n_processors=2,
            quantum=units.ms(10),
            policy=CoschedulingScheduler(),
        )
        for app in ("a", "b"):
            for i in range(2):
                kernel.spawn(
                    cpu_bound(units.ms(60)), name=f"{app}{i}", app_id=app
                )
        # Sample which app ids run together on the processors.
        samples = []

        def sampler():
            running = {
                p.current.app_id
                for p in kernel.machine.processors
                if p.current is not None
            }
            if len(running) == 1:
                samples.append(next(iter(running)))
            if kernel.alive_nondaemon_count():
                kernel.engine.schedule(units.ms(7), sampler)

        kernel.engine.schedule(units.ms(12), sampler)
        kernel.run_until_quiescent()
        # Most samples catch a single gang owning the whole machine.
        assert samples.count("a") >= 1
        assert samples.count("b") >= 1

    def test_epoch_defaults_to_quantum(self):
        kernel = make_kernel(n_processors=1, policy=CoschedulingScheduler())
        assert kernel.policy.epoch == kernel.machine.config.quantum


class TestNoPreemptAware:
    def test_flag_defers_preemption(self):
        kernel = make_kernel(
            n_processors=1,
            quantum=units.ms(5),
            policy=NoPreemptAwareScheduler(),
        )

        def flagged():
            yield sc.SetNoPreempt(True)
            yield sc.Compute(units.ms(8))  # longer than the quantum
            yield sc.SetNoPreempt(False)

        holder = kernel.spawn(flagged(), name="holder")
        kernel.spawn(cpu_bound(units.ms(5)), name="other")
        kernel.run_until_quiescent()
        # The flag deferred at least the first preemption attempt.
        assert holder.stats.preemptions <= 1

    def test_skips_doomed_spinner(self):
        policy = NoPreemptAwareScheduler()
        kernel = make_kernel(n_processors=1, quantum=units.ms(5), policy=policy)
        lock = SpinLock("l")

        def holder():
            yield sc.SpinAcquire(lock)
            yield sc.Compute(units.ms(12))
            yield sc.SpinRelease(lock)

        def contender():
            yield sc.SpinAcquire(lock)
            yield sc.SpinRelease(lock)

        kernel.spawn(holder(), name="h")
        kernel.spawn(contender(), name="c")
        kernel.spawn(cpu_bound(units.ms(10)), name="worker")
        kernel.run_until_quiescent()
        assert policy.skipped_spinners >= 1


class TestProcessGroups:
    def test_no_preempt_group_is_never_preempted(self):
        policy = ProcessGroupScheduler()
        policy.set_group_policy("protected", GroupPolicy.NO_PREEMPT)
        kernel = make_kernel(n_processors=1, quantum=units.ms(5), policy=policy)
        protected = kernel.spawn(
            cpu_bound(units.ms(50)), name="p", app_id="protected"
        )
        kernel.spawn(cpu_bound(units.ms(20)), name="n", app_id="normal")
        kernel.run_until_quiescent()
        assert protected.stats.preemptions == 0

    def test_gang_group_rotates(self):
        policy = ProcessGroupScheduler()
        policy.set_group_policy("g1", GroupPolicy.GANG)
        policy.set_group_policy("g2", GroupPolicy.GANG)
        kernel = make_kernel(n_processors=2, quantum=units.ms(10), policy=policy)
        procs = []
        for app in ("g1", "g2"):
            for i in range(2):
                procs.append(
                    kernel.spawn(
                        cpu_bound(units.ms(40)), name=f"{app}{i}", app_id=app
                    )
                )
        kernel.run_until_quiescent(max_time=units.seconds(30))
        assert all(p.state is ProcessState.TERMINATED for p in procs)


class TestAffinity:
    def test_prefers_warm_process(self):
        policy = AffinityScheduler(warmth_threshold=0.05)
        kernel = make_kernel(
            n_processors=1,
            quantum=units.ms(10),
            policy=policy,
            cache_enabled=True,
        )
        kernel.spawn(cpu_bound(units.ms(100)), name="a")
        kernel.spawn(cpu_bound(units.ms(100)), name="b")
        kernel.run_until_quiescent()
        assert policy.affinity_hits + policy.affinity_misses > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AffinityScheduler(scan_depth=0)
        with pytest.raises(ValueError):
            AffinityScheduler(warmth_threshold=1.5)


class TestPartitionPolicyModule:
    def test_one_app_gets_everything(self):
        assert compute_partitions(8, ["a"], 0) == {"a": list(range(8))}

    def test_equal_split(self):
        parts = compute_partitions(8, ["a", "b"], 0)
        assert len(parts["a"]) == 4 and len(parts["b"]) == 4
        assert set(parts["a"] + parts["b"]) == set(range(8))

    def test_system_group_reserved(self):
        parts = compute_partitions(8, ["a"], 4)
        assert SYSTEM_GROUP in parts
        assert len(parts[SYSTEM_GROUP]) >= 1
        assert len(parts["a"]) >= 1

    def test_more_apps_than_processors_share_groups(self):
        apps = [f"a{i}" for i in range(6)]
        parts = compute_partitions(4, apps, 0)
        assert all(len(parts[a]) >= 1 for a in apps)
        # Some applications must share a group.
        all_cpu_lists = [tuple(parts[a]) for a in apps]
        assert len(set(all_cpu_lists)) < len(apps)

    def test_every_processor_owned_once(self):
        parts = compute_partitions(16, ["a", "b", "c"], 2)
        owned = [cpu for cpus in parts.values() for cpu in cpus]
        assert sorted(owned) == list(range(16))

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_partitions(0, ["a"], 0)
        with pytest.raises(ValueError):
            compute_partitions(4, ["a"], -1)


class TestSpacePartitionScheduler:
    def test_apps_isolated_to_partitions(self):
        policy = SpacePartitionScheduler()
        kernel = make_kernel(n_processors=4, quantum=units.ms(5), policy=policy)
        for app in ("a", "b"):
            for i in range(2):
                kernel.spawn(
                    cpu_bound(units.ms(40)), name=f"{app}{i}", app_id=app
                )
        # After spawning both apps, each owns half the machine.
        assert len(policy.partition_of("a")) == 2
        assert len(policy.partition_of("b")) == 2
        kernel.run_until_quiescent(max_time=units.seconds(30))
        assert policy.repartitions >= 2

    def test_repartition_on_departure(self):
        policy = SpacePartitionScheduler()
        kernel = make_kernel(n_processors=4, quantum=units.ms(5), policy=policy)
        kernel.spawn(cpu_bound(units.ms(10)), name="s", app_id="short")
        kernel.spawn(cpu_bound(units.ms(200)), name="l", app_id="long")
        observed = []
        kernel.exit_listeners.append(
            lambda p: observed.append(len(policy.partition_of("long")))
            if p.app_id == "short"
            else None
        )
        kernel.run_until_quiescent(max_time=units.seconds(30))
        # Once "short" exited, the repartition gave "long" the whole machine.
        assert observed == [4]
