"""Fault plan: parse a spec string into injectors and install them.

The spec grammar is deliberately tiny so a whole plan fits in one
``Scenario.faults`` string::

    "cpu-offline:cpu=1,at=10ms,duration=40ms;server-crash:at=20ms,down=60ms"

``;``-separated items, each ``kind`` or ``kind:key=value,key=value``.
Times accept ``s`` / ``ms`` / ``us`` suffixes (bare integers are
microseconds, matching the engine clock); probabilities are floats.

Determinism contract: a :class:`FaultPlan` draws all randomness from
named :class:`~repro.sim.rand.RandomStreams` seeded from its own seed, so
``(spec, seed)`` fully determines every injected event -- replaying a run
with the same scenario and plan is bit-identical.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.injectors import (
    ChannelFault,
    ClockJitterFault,
    CpuOfflineFault,
    FaultContext,
    FaultInjector,
    PollFault,
    PreemptStormFault,
    ServerCrashFault,
)
from repro.sim.rand import RandomStreams

_TIME_SUFFIXES = (("ms", 1_000), ("us", 1), ("s", 1_000_000))


def parse_time(text: str) -> int:
    """Parse ``"40ms"`` / ``"6s"`` / ``"250us"`` / ``"1234"`` to microseconds."""
    text = text.strip()
    for suffix, scale in _TIME_SUFFIXES:
        if text.endswith(suffix):
            return int(float(text[: -len(suffix)]) * scale)
    return int(text)


def _time(value: str) -> int:
    return parse_time(value)


def _int(value: str) -> int:
    return int(value)


def _float(value: str) -> float:
    return float(value)


# kind -> (factory, {param: converter}).  The factories close over the
# PollFault/ChannelFault mode so spec names stay one token per fault.
_CATALOG: Dict[str, Tuple[Callable[..., FaultInjector], Dict[str, Callable[[str], Any]]]] = {
    "cpu-offline": (
        CpuOfflineFault,
        {"cpu": _int, "at": _time, "duration": _time},
    ),
    "server-crash": (
        ServerCrashFault,
        {"at": _time, "down": _time, "shard": _int},
    ),
    "poll-drop": (
        lambda **kw: PollFault(mode="drop", **kw),
        {"at": _time, "duration": _time, "p": _float},
    ),
    "poll-delay": (
        lambda **kw: PollFault(mode="delay", **kw),
        {"at": _time, "duration": _time, "delay": _time},
    ),
    "poll-dup": (
        lambda **kw: PollFault(mode="dup", **kw),
        {"at": _time, "duration": _time},
    ),
    "chan-drop": (
        lambda **kw: ChannelFault(mode="drop", **kw),
        {"at": _time, "duration": _time, "p": _float},
    ),
    "chan-dup": (
        lambda **kw: ChannelFault(mode="dup", **kw),
        {"at": _time, "duration": _time, "p": _float},
    ),
    "clock-jitter": (
        ClockJitterFault,
        {"at": _time, "duration": _time, "amp": _time},
    ),
    "preempt-storm": (
        PreemptStormFault,
        {"at": _time, "duration": _time, "period": _time},
    ),
}

#: Spec names of every injector kind, in catalog order.
INJECTOR_KINDS = tuple(_CATALOG)


def parse_item(item: str) -> FaultInjector:
    """Parse one ``kind:key=value,...`` item into an injector."""
    item = item.strip()
    kind, _, body = item.partition(":")
    kind = kind.strip()
    if kind not in _CATALOG:
        raise ValueError(
            f"unknown fault kind {kind!r}; expected one of {sorted(_CATALOG)}"
        )
    factory, converters = _CATALOG[kind]
    kwargs: Dict[str, Any] = {}
    if body.strip():
        for pair in body.split(","):
            key, sep, value = pair.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(f"malformed fault parameter {pair!r} in {item!r}")
            if key not in converters:
                raise ValueError(
                    f"unknown parameter {key!r} for fault {kind!r}; "
                    f"expected one of {sorted(converters)}"
                )
            kwargs[key] = converters[key](value.strip())
    return factory(**kwargs)


def parse_spec(spec: str) -> List[FaultInjector]:
    """Parse a full ``;``-separated plan spec into injectors."""
    return [parse_item(item) for item in spec.split(";") if item.strip()]


class FaultPlan:
    """A parsed, seedable set of injectors ready to install on a run."""

    def __init__(self, injectors: Sequence[FaultInjector], seed: int = 0) -> None:
        self.injectors = list(injectors)
        self.seed = seed
        self.context: Optional[FaultContext] = None

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        return cls(parse_spec(spec), seed=seed)

    def describe(self) -> str:
        """Canonical spec string (round-trips through :func:`parse_spec`)."""
        return ";".join(injector.describe() for injector in self.injectors)

    def install(self, kernel: Any, server: Optional[Any] = None) -> FaultContext:
        """Install every injector; returns the shared :class:`FaultContext`."""
        context = FaultContext(
            kernel=kernel,
            rng=RandomStreams(self.seed).fork("faults"),
            server=server,
        )
        for injector in self.injectors:
            injector.install(context)
        self.context = context
        return context

    @property
    def events(self) -> List[Tuple[int, str, Dict[str, Any]]]:
        """Injection events logged so far (empty before :meth:`install`)."""
        return [] if self.context is None else self.context.events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultPlan seed={self.seed} {self.describe()!r}>"


def random_fault_spec(
    seed: int,
    horizon: int,
    n_faults: int = 3,
    cpus: int = 8,
    kinds: Sequence[str] = INJECTOR_KINDS,
    shards: int = 1,
) -> str:
    """A random-but-reproducible plan spec (property tests, fuzz sweeps).

    Returns a *spec string* rather than a plan so callers get a fresh,
    picklable plan per run; the same ``(seed, horizon, n_faults)`` always
    yields the same spec.  Events land in the first ~60% of ``horizon`` so
    the run has room to degrade gracefully and recover.  With ``shards >
    1`` half the server crashes (by coin flip) target a random single
    shard; at the default 1 the draw sequence is exactly the historical
    one, so existing seeds keep their specs.
    """
    rng = RandomStreams(seed).get("fault-spec")
    window = max(1, (horizon * 3) // 5)
    items: List[str] = []
    for _ in range(n_faults):
        kind = rng.choice(list(kinds))
        at = rng.randrange(window)
        duration = max(1, rng.randrange(max(2, horizon // 4)))
        if kind == "cpu-offline":
            cpu = rng.randrange(cpus)
            items.append(f"cpu-offline:cpu={cpu},at={at},duration={duration}")
        elif kind == "server-crash":
            if shards > 1 and rng.random() < 0.5:
                shard = rng.randrange(shards)
                items.append(
                    f"server-crash:at={at},down={duration},shard={shard}"
                )
            else:
                items.append(f"server-crash:at={at},down={duration}")
        elif kind == "poll-drop":
            p = round(rng.uniform(0.3, 1.0), 3)
            items.append(f"poll-drop:at={at},duration={duration},p={p}")
        elif kind == "poll-delay":
            delay = max(1, rng.randrange(max(2, horizon // 8)))
            items.append(f"poll-delay:at={at},duration={duration},delay={delay}")
        elif kind == "poll-dup":
            items.append(f"poll-dup:at={at},duration={duration}")
        elif kind in ("chan-drop", "chan-dup"):
            p = round(rng.uniform(0.3, 1.0), 3)
            items.append(f"{kind}:at={at},duration={duration},p={p}")
        elif kind == "clock-jitter":
            amp = max(1, rng.randrange(max(2, horizon // 16)))
            items.append(f"clock-jitter:at={at},duration={duration},amp={amp}")
        else:  # preempt-storm
            period = max(1, rng.randrange(max(2, horizon // 32)))
            items.append(f"preempt-storm:at={at},duration={duration},period={period}")
    return ";".join(items)
