"""Deterministic seed derivation for per-device randomness streams.

A fleet simulation instantiates thousands of supplies and harvesters
from one root seed; each instance needs an independent, reproducible
RNG stream.  Python's builtin ``hash`` is salted per process, so it
cannot key streams that must agree across processes (fleet worker
processes) and across invocations (checkpoint/resume).  ``derive_seed``
hashes its parts with BLAKE2b instead: a pure function of its inputs,
stable across processes, platforms, and Python versions.
"""

from __future__ import annotations

import hashlib

#: Version tag of the derivation scheme.  Bump whenever derived streams
#: change meaning (encoding, hash, digest size): consumers that persist
#: results keyed on derived streams -- fleet checkpoints, recorded
#: expected values -- fold this into their fingerprints so stale state
#: is rejected instead of silently mixing old and new streams.
SEED_SCHEME = "blake2b-lp1"


def derive_seed(*parts: object) -> int:
    """A 64-bit seed derived deterministically from ``parts``.

    ``derive_seed(7, "tire", 3)`` names one stream and
    ``derive_seed(7, "tire", 4)`` a statistically independent one.

    Each part is hashed as a length-prefixed byte string, so distinct
    part *tuples* can never collide: a naive separator join would make
    ``derive_seed("a:b")`` and ``derive_seed("a", "b")`` the same
    stream, which silently correlates devices whose names embed the
    separator.
    """
    hasher = hashlib.blake2b(digest_size=8)
    for part in parts:
        encoded = str(part).encode("utf-8")
        hasher.update(len(encoded).to_bytes(4, "big"))
        hasher.update(encoded)
    return int.from_bytes(hasher.digest(), "big")
