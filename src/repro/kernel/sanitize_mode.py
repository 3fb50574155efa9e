"""The ``REPRO_SANITIZE`` knob, parsed in one place.

The kernel and the control server read the knob when they are built, to
arm their oracles; the runner reads it to attach the sanitizer.  This is
a leaf module because :mod:`repro.sanitize` imports the threads package,
which imports the kernel, so the kernel cannot import the parser from
there.  :mod:`repro.sanitize.invariants` re-exports it.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

#: Environment knob consulted by ``run_scenario`` (and the experiments CLI,
#: which sets it from ``--sanitize``).
SANITIZE_ENV_VAR = "REPRO_SANITIZE"

_OFF_VALUES = {"", "0", "off", "false", "no", "none"}
_STRICT_VALUES = {"1", "on", "true", "yes", "strict"}
_RECORD_VALUES = {"record", "warn"}


def sanitize_mode_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[str]:
    """Resolve :data:`SANITIZE_ENV_VAR` to ``None``/``"strict"``/``"record"``."""
    source = os.environ if environ is None else environ
    raw = source.get(SANITIZE_ENV_VAR, "").strip().lower()
    if raw in _OFF_VALUES:
        return None
    if raw in _STRICT_VALUES:
        return "strict"
    if raw in _RECORD_VALUES:
        return "record"
    raise ValueError(
        f"unrecognized {SANITIZE_ENV_VAR}={raw!r}; use 1/strict, record, or 0"
    )
