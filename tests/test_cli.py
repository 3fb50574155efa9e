"""Smoke tests for the command-line entry points."""

import subprocess
import sys

import pytest


def run_cli(*args, timeout=300.0):
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return result


def test_repro_main():
    result = run_cli("-m", "repro", "--scale", "0.05", "--processes", "20")
    assert result.returncode == 0
    assert "process control demo" in result.stdout
    assert "gain" in result.stdout


def test_experiments_figure2():
    result = run_cli("-m", "repro.experiments", "figure2")
    assert result.returncode == 0
    assert "server targets" in result.stdout
    assert "'app1': 2" in result.stdout


def test_experiments_figure4_quick():
    result = run_cli("-m", "repro.experiments", "figure4", "--preset", "quick")
    assert result.returncode == 0
    assert "Figure 4" in result.stdout
    assert "makespan" in result.stdout


def test_experiments_unknown_rejected():
    result = run_cli("-m", "repro.experiments", "figure99")
    assert result.returncode != 0
    assert "invalid choice" in result.stderr


def test_experiments_bad_preset_rejected():
    result = run_cli("-m", "repro.experiments", "figure2", "--preset", "huge")
    assert result.returncode != 0


def test_experiments_zero_jobs_rejected():
    # Built into a Runs record at the edge, so the bad value is named
    # before any experiment runs.
    result = run_cli("-m", "repro.experiments", "figure2", "--jobs", "0")
    assert result.returncode == 2
    assert "got 0" in result.stderr
