"""Ratchet: one control-plane shape.

Every control server is a shard of a :class:`~repro.core.plane.ControlPlane`,
and everything that drives or audits the control plane (the fault
injectors, the watchdog, the sanitizer) takes the plane and calls it
directly.  Every module under ``src/repro`` is parsed, and a ``getattr`` or
``hasattr`` of a control-plane name -- code guessing which shape it was
handed -- fails the suite.
"""

import ast
from pathlib import Path

from repro.core.plane import ControlPlane
from repro.core.server import ProcessControlServer

from tests.conftest import make_kernel

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Attributes only a control plane has; probing for them means the caller
#: does not know it holds a plane.
PLANE_NAMES = {
    "servers",
    "boards",
    "channels",
    "crash_shard",
    "restart_shard",
    "fail_over",
    "published_targets",
    "assignment",
}


def shape_probes(tree):
    """Line numbers of every ``getattr``/``hasattr`` of a plane name."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in PLANE_NAMES
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_probes_for_the_plane_shape():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = shape_probes(ast.parse(path.read_text(), filename=str(path)))
        if lines:
            offenders[path.relative_to(SRC).as_posix()] = lines
    assert not offenders, f"control-plane shape probes: {offenders}"


def test_detector_sees_each_form():
    source = (
        "a = getattr(x, 'servers', None)\n"
        "b = hasattr(x, 'crash_shard')\n"
        "c = getattr(x, 'published_targets')\n"
        "d = getattr(x, 'board', None)\n"
        "e = getattr(x, name, None)\n"
        "f = x.servers\n"
        "g = obj.getattr(x, 'boards')\n"
        "h = getattr(x, 'assignment', {}).get('a')\n"
    )
    assert shape_probes(ast.parse(source)) == [1, 2, 3, 8]


def test_a_server_is_built_by_its_plane():
    plane = ControlPlane(make_kernel())
    (server,) = plane.servers
    assert server.plane is plane
    assert server.kernel is plane.kernel
    assert server.shard_index == 0
    assert not hasattr(ProcessControlServer, "bind_shard")
