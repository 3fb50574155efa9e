"""Ratchet: library code does not read the environment.

Every module under ``src/repro`` is parsed, and any ``os.environ`` or
``os.getenv`` use outside the edge modules listed below fails the suite.
The list may only shrink: the library takes its settings as arguments.
A second ratchet bounds the ``REPRO_*`` variables the library names at
all: a run is described by its ``Scenario`` and executed as its ``Runs``
record says, so no run setting may come back as a variable.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Modules (relative to ``src/repro``) still allowed to read the
#: environment: the golden stores' update flag, a test-time switch.
ALLOWED = {"scenarios/golden.py"}


def env_reads(tree):
    """Line numbers of every environment read in a parsed module."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv") for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_edge_modules_read_the_environment():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module in ALLOWED:
            continue
        lines = env_reads(ast.parse(path.read_text(), filename=str(path)))
        if lines:
            offenders[module] = lines
    assert not offenders, f"environment read outside the edge modules: {offenders}"


def test_every_allowed_module_exists_and_reads_the_environment():
    # A stale entry would let a later module slip in under its name.
    for module in sorted(ALLOWED):
        path = SRC / module
        assert path.is_file(), module
        assert env_reads(ast.parse(path.read_text())), module


def test_detector_sees_each_form():
    source = (
        "import os\n"
        "from os import getenv\n"
        "a = os.environ.get('X')\n"
        "b = os.getenv('Y')\n"
        "e = os.path.join('a', 'b')\n"
    )
    assert env_reads(ast.parse(source)) == [2, 3, 4]


#: The only ``REPRO_*`` variable the library may name: the golden-file
#: update flag.
KEPT_VARIABLES = {"REPRO_UPDATE_GOLDEN"}

_VARIABLE = re.compile(r"\bREPRO_[A-Z_]+")


def repro_variables(text):
    """``(line, name)`` of every ``REPRO_*`` name in *text* that is not
    one of :data:`KEPT_VARIABLES` (code, strings and comments alike)."""
    return [
        (number, name)
        for number, line in enumerate(text.splitlines(), 1)
        for name in _VARIABLE.findall(line)
        if name not in KEPT_VARIABLES
    ]


def test_library_names_only_the_kept_variables():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        found = repro_variables(path.read_text())
        if found:
            offenders[path.relative_to(SRC).as_posix()] = found
    assert not offenders, f"REPRO_* variable other than the kept one: {offenders}"


def test_variable_detector():
    text = (
        'A = "REPRO_SANITIZE"\n'
        'B = os.environ.get("REPRO_POLICY")\n'
        "# set REPRO_JOBS=2 and $REPRO_SHARDS, REPRO_UPDATE_GOLDEN=1\n"
        "every REPRO_* knob, XREPRO_FAULTS\n"
    )
    assert repro_variables(text) == [
        (1, "REPRO_SANITIZE"),
        (2, "REPRO_POLICY"),
        (3, "REPRO_JOBS"),
        (3, "REPRO_SHARDS"),
    ]
