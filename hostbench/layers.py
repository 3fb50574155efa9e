"""Attribute profiled self time to the simulator's layers.

A layer is a set of ``repro`` modules.  Each module belongs to the layer
of its longest matching prefix below, so ``repro.kernel.syscalls`` is
``sync`` while the rest of ``repro.kernel`` is ``kernel``.  ``other`` is
an explicit list, not a fallback: a new package lands unmapped (and the
layer-map test fails) until someone places it.

Functions outside ``repro`` -- builtins, the standard library, scenario
factories defined in the benchmark -- have no layer of their own.  Their
self time is charged to the layers of their callers, in proportion to
the time each caller spent in them (cProfile's per-caller inline time).
"""

from __future__ import annotations

import cProfile
from pathlib import Path
from typing import Dict, Optional, Tuple

#: Layer name -> module prefixes (dotted, relative to the source root).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "engine": ("repro.sim",),
    "kernel": ("repro.kernel", "repro.machine"),
    "scheduler": ("repro.kernel.scheduler", "repro.workloads.schedulers"),
    "sync": ("repro.kernel.syscalls", "repro.kernel.ipc", "repro.sync"),
    "core": ("repro.core", "repro.resilience"),
    "threads": ("repro.threads",),
    "apps": ("repro.apps", "repro.workloads"),
    "runner": ("repro.workloads.runner",),
    "metrics": (
        "repro.sim.trace",
        "repro.sim.export",
        "repro.sim.units",
        "repro.sim.rand",
        "repro.metrics",
    ),
    "other": (
        "repro.__init__",
        "repro.__main__",
        "repro.analysis",
        "repro.experiments",
        "repro.faults",
        "repro.realsys",
        "repro.sanitize",
        "repro.scenarios",
        "repro.viz",
    ),
}

LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS)

#: The metrics :func:`attribute` reports for every layer.
LAYER_FIELDS: Tuple[str, ...] = ("self_s", "share", "calls_in", "ns_per_call")

#: Where ``repro`` lives; files under it are mapped by module name.
SRC = Path(__file__).resolve().parent.parent / "src"

_PREFIXES = {p: layer for layer, prefixes in LAYERS.items() for p in prefixes}


def module_of(path: Path) -> Optional[str]:
    """Dotted module name of a source file under :data:`SRC`, else ``None``.

    Package initialisers keep their ``__init__`` component, so the top
    package ``repro/__init__.py`` is ``repro.__init__``.
    """
    try:
        rel = path.resolve().relative_to(SRC)
    except ValueError:
        return None
    return ".".join(rel.with_suffix("").parts)


def layer_of(module: str) -> Optional[str]:
    """The layer of *module* by longest prefix match, or ``None``."""
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        layer = _PREFIXES.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return None


Func = Tuple[str, int, str]


class _Attribution:
    """Layer weights for every function in one cProfile stats table.

    cProfile's table maps each function to ``(cc, nc, tt, ct, callers)``
    and each caller entry to ``(nc, cc, tt, ct)``: the calls, and the
    callee's own time, that came from that caller.
    """

    def __init__(self, stats: Dict[Func, tuple]) -> None:
        self.stats = stats
        self._own: Dict[str, Optional[str]] = {}
        self._mix: Dict[Func, Dict[str, float]] = {}

    def own_layer(self, func: Func) -> Optional[str]:
        """The layer a function is defined in (``None`` outside repro)."""
        filename = func[0]
        if filename not in self._own:
            module = None if filename.startswith("~") else module_of(Path(filename))
            self._own[filename] = layer_of(module) if module else None
        return self._own[filename]

    def mix(self, func: Func, visiting: frozenset = frozenset()) -> Dict[str, float]:
        """Fractions of *func*'s self time that each layer is charged."""
        layer = self.own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        cached = self._mix.get(func)
        if cached is not None:
            return cached
        visiting = visiting | {func}
        callers = [
            (tt, nc, caller)
            for caller, (nc, _cc, tt, _ct) in self.stats[func][4].items()
            if caller not in visiting
        ]
        total = sum(tt for tt, _nc, _caller in callers)
        mix: Dict[str, float] = {}
        if total > 0.0:
            for tt, _nc, caller in callers:
                for name, share in self.mix(caller, visiting).items():
                    mix[name] = mix.get(name, 0.0) + share * tt / total
        elif callers:
            # No caller time to split by: follow the most frequent caller.
            mix = self.mix(max(callers, key=lambda c: c[1])[2], visiting)
        else:
            # A root: called only from the benchmark loop itself.
            mix = {"other": 1.0}
        self._mix[func] = mix
        return mix

    def dominant(self, func: Func) -> str:
        mix = self.mix(func)
        return max(mix, key=mix.get)


def attribute(profile: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s``, ``share``, ``calls_in`` and ``ns_per_call``.

    ``calls_in`` counts calls into a layer's own functions from a caller
    in another layer (or from the benchmark loop itself);
    ``ns_per_call`` is the layer's self time over all calls to its own
    functions.
    """
    profile.create_stats()
    stats = profile.stats
    att = _Attribution(stats)
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    calls_in = dict.fromkeys(LAYER_NAMES, 0)
    calls = dict.fromkeys(LAYER_NAMES, 0)
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        for name, share in att.mix(func).items():
            self_s[name] += tt * share
        layer = att.own_layer(func)
        if layer is None:
            continue
        calls[layer] += nc
        if not callers:
            calls_in[layer] += nc
        for caller, (caller_nc, _cc2, _tt2, _ct2) in callers.items():
            if att.dominant(caller) != layer:
                calls_in[layer] += caller_nc
    total = sum(self_s.values()) or 1.0
    return {
        name: {
            "self_s": self_s[name],
            "share": self_s[name] / total,
            "calls_in": calls_in[name],
            "ns_per_call": self_s[name] * 1e9 / calls[name] if calls[name] else 0.0,
        }
        for name in LAYER_NAMES
    }
