"""Signals (the paper's suspension mechanism) and IPC channels."""

import pytest

from repro.kernel import Channel
from repro.kernel import syscalls as sc
from repro.kernel.ipc import ControlBoard
from repro.kernel.process import ProcessState
from repro.sim import units

from tests.conftest import make_kernel


class TestSignals:
    def test_wait_then_signal_resumes(self):
        kernel = make_kernel(n_processors=2, context_switch_cost=0)
        received = []

        def sleeper():
            payload = yield sc.WaitSignal()
            received.append(payload)

        def waker(target_pid):
            yield sc.Compute(units.ms(1))
            ok = yield sc.SendSignal(target_pid, payload="resume")
            assert ok

        target = kernel.spawn(sleeper(), name="t")
        kernel.spawn(waker(target.pid), name="w")
        kernel.run_until_quiescent()
        assert received == ["resume"]
        assert target.stats.suspensions == 1
        assert target.stats.block_time >= units.ms(1) - units.us(100)

    def test_signal_before_wait_is_not_lost(self):
        kernel = make_kernel(n_processors=2, context_switch_cost=0)
        received = []

        def late_waiter():
            yield sc.Compute(units.ms(2))
            payload = yield sc.WaitSignal()
            received.append(payload)

        def early_sender(target_pid):
            ok = yield sc.SendSignal(target_pid, payload="early")
            assert ok

        target = kernel.spawn(late_waiter(), name="t")
        kernel.spawn(early_sender(target.pid), name="s")
        kernel.run_until_quiescent()
        assert received == ["early"]
        # The waiter never actually blocked.
        assert target.stats.suspensions == 0

    def test_signal_to_dead_process_returns_false(self):
        kernel = make_kernel(n_processors=1, context_switch_cost=0)
        results = []

        def sender():
            ok = yield sc.SendSignal(9999)
            results.append(ok)

        kernel.spawn(sender(), name="s")
        kernel.run_until_quiescent()
        assert results == [False]

    def test_suspended_by_control_flag(self):
        kernel = make_kernel(n_processors=1, context_switch_cost=0)

        def sleeper():
            yield sc.WaitSignal()

        def other():
            yield sc.Compute(units.ms(2))

        target = kernel.spawn(sleeper(), name="t")
        kernel.spawn(other(), name="o")
        kernel.run_until_quiescent(
            done=lambda: kernel.now > units.ms(1) and target.state is ProcessState.BLOCKED
        )
        assert target.suspended_by_control

    def test_suspended_process_is_not_runnable(self):
        kernel = make_kernel(n_processors=2, context_switch_cost=0)

        def sleeper():
            yield sc.WaitSignal()

        def spinner():
            yield sc.Compute(units.ms(5))

        target = kernel.spawn(sleeper(), name="t")
        worker = kernel.spawn(spinner(), name="s", app_id="app")
        kernel.run_until_quiescent(done=lambda: not worker.alive)
        assert not target.runnable
        assert kernel.runnable_by_app() == {}


class TestChannels:
    def test_send_receive(self):
        kernel = make_kernel(n_processors=2, context_switch_cost=0)
        channel = Channel("c")
        got = []

        def sender():
            yield sc.ChannelSend(channel, "hello")
            yield sc.ChannelSend(channel, "world")

        def receiver():
            a = yield sc.ChannelReceive(channel)
            b = yield sc.ChannelReceive(channel)
            got.extend([a, b])

        kernel.spawn(sender(), name="s")
        kernel.spawn(receiver(), name="r")
        kernel.run_until_quiescent()
        assert got == ["hello", "world"]
        assert channel.sends == 2
        assert channel.receives == 2

    def test_receive_blocks_until_message(self):
        kernel = make_kernel(n_processors=2, context_switch_cost=0)
        channel = Channel("c")
        got = []

        def receiver():
            message = yield sc.ChannelReceive(channel)
            got.append((message, kernel.now))

        def sender():
            yield sc.Compute(units.ms(3))
            yield sc.ChannelSend(channel, 42)

        kernel.spawn(receiver(), name="r")
        kernel.spawn(sender(), name="s")
        kernel.run_until_quiescent()
        message, when = got[0]
        assert message == 42
        assert when >= units.ms(3)

    def test_bounded_channel_blocks_sender(self):
        kernel = make_kernel(n_processors=2, context_switch_cost=0)
        channel = Channel("c", capacity=1)
        done = {}

        def sender():
            yield sc.ChannelSend(channel, 1)
            yield sc.ChannelSend(channel, 2)  # blocks: capacity 1
            done["sent_all"] = kernel.now

        def receiver():
            yield sc.Compute(units.ms(2))
            a = yield sc.ChannelReceive(channel)
            b = yield sc.ChannelReceive(channel)
            done["received"] = (a, b)

        kernel.spawn(sender(), name="s")
        kernel.spawn(receiver(), name="r")
        kernel.run_until_quiescent()
        assert done["received"] == (1, 2)
        assert done["sent_all"] >= units.ms(2)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Channel("c", capacity=0)


class TestControlBoard:
    def test_post_and_read(self):
        board = ControlBoard()
        assert board.read("app") is None
        board.post({"app": 4}, now=10)
        assert board.read("app") == 4
        assert board.posted_at("app") == 10
        assert board.updated_at == 10

    def test_post_replaces_targets(self):
        board = ControlBoard()
        board.post({"a": 1, "b": 2}, now=0)
        board.post({"a": 3}, now=5)
        assert board.read("a") == 3
        assert board.read("b") is None
        assert board.updated_at == 5
        assert board.posted_at("a") == 5
        assert board.posted_at("b") is None

    def test_negative_target_rejected(self):
        board = ControlBoard()
        with pytest.raises(ValueError):
            board.post({"a": -1}, now=0)
