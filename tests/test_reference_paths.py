"""Ratchet: one production path per mechanism.

Reference implementations -- the literal table-scan server, the O(n)
decay scheduler, the plain event loop -- live in ``repro.sanitize``,
where the oracles and the equivalence tests use them.  Every module under
``src/repro`` outside ``sanitize/`` is parsed, and a class named
``Reference*`` or ``TableScan*``, or an import of
``repro.sanitize.reference`` or ``repro.sanitize.oracle``, fails the
suite.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Class-name prefixes reserved for reference implementations.
REFERENCE_CLASSES = ("Reference", "TableScan")

#: The modules that hold the reference paths and the oracles that run them.
REFERENCE_MODULES = {"repro.sanitize.reference", "repro.sanitize.oracle"}


def reference_paths(tree):
    """Line numbers of every reference class or reference-module import."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if node.name.startswith(REFERENCE_CLASSES):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name in REFERENCE_MODULES for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported = {f"{node.module}.{alias.name}" for alias in node.names}
            if node.module in REFERENCE_MODULES or imported & REFERENCE_MODULES:
                lines.append(node.lineno)
    return sorted(lines)


def test_production_modules_hold_no_reference_path():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module.startswith("sanitize/"):
            continue
        lines = reference_paths(ast.parse(path.read_text(), filename=str(path)))
        if lines:
            offenders[module] = lines
    assert not offenders, f"reference paths outside repro.sanitize: {offenders}"


def test_detector_sees_each_form():
    source = (
        "class ReferenceDecayScheduler(PriorityDecayScheduler): pass\n"
        "class TableScanServer(ProcessControlServer): pass\n"
        "import repro.sanitize.reference\n"
        "from repro.sanitize.oracle import plain_event_loop\n"
        "from repro.sanitize import reference\n"
        "from repro.sanitize import invariants\n"
        "from repro.sanitize.invariants import SchedSanitizer\n"
        "class DecayReference: pass\n"
        "x = ReferenceDecayScheduler()\n"
        "import repro.sanitize\n"
    )
    assert reference_paths(ast.parse(source)) == [1, 2, 3, 4, 5]
