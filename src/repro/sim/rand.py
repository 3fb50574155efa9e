"""Named pseudo-random streams.

Every source of randomness in the simulator draws from a named stream, each
deterministically derived from the master seed.  This gives two properties
that matter for a reproduction study:

* **reproducibility** -- the same seed always yields the same run;
* **isolation** -- adding a draw to one subsystem (say, task cost jitter)
  does not shift the sequence seen by another (say, arrival times), so
  experiments stay comparable as the code evolves.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """A factory of independently seeded :class:`random.Random` streams.

    Streams are created on first use and cached, so two calls with the same
    name return the same underlying generator::

        streams = RandomStreams(seed=42)
        streams.get("arrivals").random()
        streams.get("task-jitter").gauss(0, 1)
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream called *name*, creating it deterministically."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(self._derive_seed(name))
            self._streams[name] = stream
        return stream

    def clear(self) -> None:
        """Release every cached stream (an application that has finished).

        A stream fetched again after a clear restarts from its seed: its
        first draw equals a fresh stream's, not the draw that would have
        followed.  Clear only once nothing will draw again.
        """
        self._streams.clear()

    def _derive_seed(self, name: str) -> int:
        """Derive a stream seed from the master seed and the stream name.

        SHA-256 is used as a stable, platform-independent mixing function
        (``hash()`` is salted per-interpreter and unusable here).
        """
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def fork(self, name: str) -> "RandomStreams":
        """Create a child stream-space, e.g. one per application instance."""
        return RandomStreams(self._derive_seed(f"fork:{name}"))
