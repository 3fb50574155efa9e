"""The ``python -m repro scenarios`` front end.

Most tests drive the CLI in-process (fast, and measured by coverage); one
subprocess smoke test proves the ``python -m repro`` wiring end to end.
"""

import subprocess
import sys

import pytest

from repro.scenarios import case_names
from repro.scenarios.cli import main


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_lists_whole_corpus(self, capsys):
        code, out, _ = run_main(capsys, "scenarios", "list")
        assert code == 0
        for name in case_names()[:3]:
            assert name in out
        assert "digest-pinned" in out

    def test_family_filter(self, capsys):
        code, out, _ = run_main(
            capsys, "scenarios", "list", "--family", "failover"
        )
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("failover")]
        assert lines and all("failover" in line for line in lines)

    def test_scheduler_and_fault_filters(self, capsys):
        code, out, _ = run_main(
            capsys,
            "scenarios",
            "list",
            "--scheduler",
            "partition",
            "--fault",
            "none",
        )
        assert code == 0
        assert "partition" in out
        assert "server-crash" not in out

    def test_policy_filter(self, capsys):
        code, out, _ = run_main(
            capsys, "scenarios", "list", "--policy", "weighted"
        )
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith(("cross", "fuzz"))]
        assert rows and all("weighted" in line for line in rows)

    def test_policy_default_filter_selects_unpinned_only(self, capsys):
        # Every built-in corpus entry names its policy explicitly, so
        # the 'default' selector legitimately matches nothing.
        code, out, _ = run_main(
            capsys, "scenarios", "list", "--policy", "default"
        )
        assert code == 0
        assert "0 cases" in out

    def test_name_substring_filter(self, capsys):
        code, out, _ = run_main(
            capsys, "scenarios", "list", "--filter", "shrink"
        )
        assert code == 0
        listed = [
            line.split()[0]
            for line in out.splitlines()
            if line and not line.startswith(("total", "\n")) and " " in line
        ]
        assert all("shrink" in name for name in listed if "-" in name)


class TestShow:
    def test_show_dumps_record(self, capsys):
        name = case_names()[0]
        code, out, _ = run_main(capsys, "scenarios", "show", name)
        assert code == 0
        assert f"name: {name!r}" in out
        assert "expected_census" in out

    def test_show_unknown_case(self, capsys):
        with pytest.raises(KeyError):
            run_main(capsys, "scenarios", "show", "no-such-case")


class TestRun:
    def test_run_named_cases(self, capsys):
        code, out, _ = run_main(
            capsys,
            "scenarios",
            "run",
            "cross-fifo-equal",
            "cross-decay-equal",
            "--no-digests",
        )
        assert code == 0
        assert "2/2 cases ok" in out

    def test_run_with_digest_pins(self, capsys):
        """A pinned case checked against the committed golden store."""
        code, out, _ = run_main(
            capsys, "scenarios", "run", "cross-fifo-equal"
        )
        assert code == 0
        assert "1/1 cases ok" in out

    def test_run_filtered_with_sanitizer(self, capsys):
        code, out, _ = run_main(
            capsys,
            "scenarios",
            "run",
            "--filter",
            "bursty-one-wave",
            "--sanitize",
            "--no-digests",
            "--verbose",
        )
        assert code == 0
        assert "[ok]" in out

    def test_run_no_match_is_an_error(self, capsys):
        code, _, err = run_main(
            capsys, "scenarios", "run", "--filter", "zzz-no-such"
        )
        assert code == 2
        assert "no catalog cases match" in err

    def test_run_reports_failures_nonzero(self, capsys, monkeypatch, tmp_path):
        # Point the runner at an empty golden store: the pinned case must
        # fail loudly (missing pin) rather than silently pass.
        import repro.scenarios.cli as cli_module
        from repro.scenarios.golden import GoldenStore

        monkeypatch.setattr(
            cli_module,
            "open_golden_store",
            lambda path=None: GoldenStore(tmp_path / "empty.json", "regen-hint"),
        )
        code, out, _ = run_main(capsys, "scenarios", "run", "cross-fifo-equal")
        assert code == 1
        assert "no golden pin" in out


class TestCosimCli:
    def test_cosim_list(self, capsys):
        code, out, _ = run_main(capsys, "scenarios", "cosim", "--list")
        assert code == 0
        assert "two-pools-handback" in out
        assert "shrink-to-one" in out

    @pytest.mark.cosim
    def test_cosim_run_named_case(self, capsys):
        code, out, _ = run_main(
            capsys, "scenarios", "cosim", "shrink-to-one"
        )
        # A transient host-load divergence exits 1 with the diff printed;
        # either way the oracle ran and reported both timelines.
        assert code in (0, 1)
        assert "co-sim shrink-to-one" in out
        assert "decisions sim" in out


def test_module_entrypoint_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "scenarios", "list", "--family", "cross"],
        capture_output=True,
        text=True,
        timeout=300.0,
    )
    assert result.returncode == 0
    assert "cross-fifo-equal" in result.stdout
