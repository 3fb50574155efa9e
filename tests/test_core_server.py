"""Tests for the centralized process-control server."""

import warnings

import pytest

from repro.core.allocation import make_policy
from repro.core.server import ProcessControlServer
from repro.kernel import syscalls as sc
from repro.kernel.process import ProcessState, RunnableProcessInfo
from repro.sim import units

from tests.conftest import make_kernel


def table_row(pid, app_id=None, controllable=False, state=ProcessState.READY):
    return RunnableProcessInfo(
        pid=pid,
        ppid=0,
        app_id=app_id,
        controllable=controllable,
        state=state,
        name=f"p{pid}",
    )


def cpu_bound(duration, chunk=units.ms(10)):
    def program():
        remaining = duration
        while remaining > 0:
            step = min(chunk, remaining)
            remaining -= step
            yield sc.Compute(step)

    return program()


class TestServerLoop:
    def test_server_posts_targets_periodically(self):
        kernel = make_kernel(n_processors=4)
        server = ProcessControlServer(kernel, interval=units.ms(100))
        server.start()
        for i in range(3):
            kernel.spawn(
                cpu_bound(units.ms(500)),
                name=f"w{i}",
                app_id="app",
                controllable=True,
            )
        kernel.run_until_quiescent()
        assert server.updates >= 3
        assert server.board.read("app") is not None
        # With one 3-process app on 4 processors, the cap rule applies.
        last_targets = server.history[-2][1] if len(server.history) > 1 else {}
        assert server.history[0][1]["app"] <= 4

    def test_server_excludes_itself_from_uncontrolled_load(self):
        kernel = make_kernel(n_processors=4)
        server = ProcessControlServer(kernel, interval=units.ms(100))
        server.start()
        kernel.spawn(
            cpu_bound(units.ms(300)), name="w", app_id="app", controllable=True
        )
        kernel.run_until_quiescent()
        # If the server counted itself, the app would be capped at 3.
        assert server.history[0][1]["app"] == 1  # capped by app total (1)

    def test_server_subtracts_uncontrolled_processes(self):
        kernel = make_kernel(n_processors=4)
        server = ProcessControlServer(kernel, interval=units.ms(50))
        server.start()
        # Two uncontrollable CPU hogs; run as daemons so the test ends.
        for i in range(2):
            kernel.spawn(
                cpu_bound(units.seconds(5)), name=f"hog{i}", daemon=True
            )
        for i in range(4):
            kernel.spawn(
                cpu_bound(units.ms(400)),
                name=f"w{i}",
                app_id="app",
                controllable=True,
            )
        kernel.run_until_quiescent()
        # 4 processors - 2 uncontrolled = 2 for the app (cap 4).
        targets = [t["app"] for _, t in server.history if "app" in t]
        assert 2 in targets

    def test_registration_channel(self):
        kernel = make_kernel(n_processors=2)
        server = ProcessControlServer(kernel, interval=units.ms(50))
        server.start()

        def registering_app():
            yield sc.ChannelSend(server.channel, ("register", "myapp", 42, 1))
            yield sc.Compute(units.ms(200))

        kernel.spawn(registering_app(), name="root", app_id="myapp",
                     controllable=True)
        kernel.run_until_quiescent()
        assert server.registered == {"myapp": 42}

    def test_registration_without_backlog_raises(self):
        kernel = make_kernel(n_processors=2)
        server = ProcessControlServer(kernel, interval=units.ms(50))
        server.start()

        def registering_app():
            # A 3-tuple lacks the initial-backlog field.
            yield sc.ChannelSend(server.channel, ("register", "old", 7))
            yield sc.Compute(units.ms(200))

        kernel.spawn(registering_app(), name="root", app_id="old",
                     controllable=True)
        from repro.sim.engine import SimulationError

        with pytest.raises(SimulationError) as raised:
            kernel.run_until_quiescent()
        cause = raised.value.__cause__
        assert isinstance(cause, ValueError)
        assert "('register', 'old', 7)" in str(cause)
        assert server.registered == {}

    def test_server_requires_positive_interval(self):
        kernel = make_kernel()
        with pytest.raises(ValueError):
            ProcessControlServer(kernel, interval=0)

    def test_server_rejects_negative_compute_cost(self):
        kernel = make_kernel()
        with pytest.raises(ValueError):
            ProcessControlServer(kernel, interval=units.ms(50), compute_cost=-1)

    def test_server_accepts_zero_compute_cost(self):
        # Zero is a legitimate ablation value (free scans); only negatives
        # are nonsense.
        kernel = make_kernel()
        server = ProcessControlServer(kernel, interval=units.ms(50), compute_cost=0)
        assert server.compute_cost == 0

    def test_server_cannot_start_twice(self):
        kernel = make_kernel()
        server = ProcessControlServer(kernel, interval=units.ms(50))
        server.start()
        with pytest.raises(RuntimeError):
            server.start()

    def test_weighted_server(self):
        kernel = make_kernel(n_processors=8)
        server = ProcessControlServer(
            kernel,
            interval=units.ms(50),
            policy=make_policy("weighted", weights={"a": 3.0, "b": 1.0}),
        )
        server.start()
        for app in ("a", "b"):
            for i in range(8):
                kernel.spawn(
                    cpu_bound(units.ms(300)),
                    name=f"{app}{i}",
                    app_id=app,
                    controllable=True,
                )
        kernel.run_until_quiescent()
        first = server.history[0][1]
        assert first["a"] > first["b"]

    def test_default_policy_is_equipartition(self):
        server = ProcessControlServer(make_kernel(), interval=units.ms(50))
        assert server.policy.name == "equal"
        assert server.policy.equipartition

    def test_registry_built_default_reproduces_section5(self):
        # The worked example of Section 5, driven straight through
        # compute_targets with a policy built from the registry: 8 CPUs,
        # 2 uncontrolled runnable processes, apps of 2/6/6 -> 2/2/2.
        kernel = make_kernel(n_processors=8)
        server = ProcessControlServer(
            kernel, interval=units.ms(50), policy=make_policy("equal")
        )
        table = [table_row(pid, controllable=False) for pid in (100, 101)]
        pid = 200
        for app_id, total in (("app1", 2), ("app2", 6), ("app3", 6)):
            for _ in range(total):
                table.append(table_row(pid, app_id=app_id, controllable=True))
                pid += 1
        targets = server.compute_targets(table, now=0)
        assert targets == {"app1": 2, "app2": 2, "app3": 2}

    def test_demand_policy_consumes_board_reports(self):
        kernel = make_kernel(n_processors=8)
        server = ProcessControlServer(
            kernel, interval=units.ms(50), policy=make_policy("demand")
        )
        table = []
        pid = 200
        for app_id in ("a", "b"):
            for _ in range(6):
                table.append(table_row(pid, app_id=app_id, controllable=True))
                pid += 1
        # Before any demand report: plain equipartition.
        assert server.compute_targets(table, now=0) == {"a": 4, "b": 4}
        # "a" reports a 2-task backlog: its share shrinks, "b" absorbs.
        server.board.report_demand("a", 2, now=0)
        assert server.compute_targets(table, now=0) == {"a": 2, "b": 6}

    def test_registration_piggybacks_initial_backlog(self):
        kernel = make_kernel(n_processors=2)
        server = ProcessControlServer(kernel, interval=units.ms(50))
        server.start()

        def registering_app():
            yield sc.ChannelSend(
                server.channel, ("register", "myapp", 42, 7)
            )
            yield sc.Compute(units.ms(200))

        kernel.spawn(
            registering_app(), name="root", app_id="myapp", controllable=True
        )
        kernel.run_until_quiescent()
        assert server.registered == {"myapp": 42}
        assert server.board.demand_snapshot() == {"myapp": 7}

    def test_published_targets_and_shard_surfaces(self):
        server = ProcessControlServer(make_kernel(), interval=units.ms(50))
        assert server.boards == [server.board]
        assert server.channels == [server.channel]
        assert server.shard_index == 0
        server.board.post({"a": 3}, now=0)
        published = server.published_targets()
        assert published == {"a": 3}
        # A copy, not the live dict.
        published["a"] = 99
        assert server.board.targets == {"a": 3}

    def test_targets_track_departures(self):
        kernel = make_kernel(n_processors=4)
        server = ProcessControlServer(kernel, interval=units.ms(50))
        server.start()
        kernel.spawn(
            cpu_bound(units.ms(120)), name="short", app_id="short",
            controllable=True,
        )
        kernel.spawn(
            cpu_bound(units.ms(600)), name="long", app_id="long",
            controllable=True,
        )
        kernel.run_until_quiescent()
        # After the short app exits, the long app's target grows.
        with_both = [t for _, t in server.history if "short" in t]
        after = [t for _, t in server.history if "short" not in t and "long" in t]
        assert with_both and after
        assert after[-1]["long"] >= with_both[0]["long"]
