"""On-disk persistence for the fleet activation memo.

Activation-memo entries are pure functions of their key (the formal
foundation's observation: an activation's outcome is determined by
program, environment segment, nonvolatile state, and supply state), so
they are safe to reuse across processes and runs.  The store keeps one
*shard* file per program identity; the shard token the executor derives
binds everything an entry's validity depends on:

* the memo schema version (:data:`MEMO_SCHEMA`),
* the aggregate-parity scheme (``AGGREGATE_PARITY_SCHEME``),
* the program: app, build config, engine, source digest, pass-pipeline
  fingerprint (via :class:`~repro.core.cache.CacheKey`), and cost model.

File names are content addresses -- a digest of the shard token -- and
the token itself is stored inside the payload, so a digest collision or
a stray file can never smuggle entries into the wrong program.  Loads
are corruption-tolerant: any unreadable, truncated, or schema-mismatched
shard degrades to a cold cache instead of an error (a miss costs one
re-execution; a wrong hit would cost correctness), with one logged
warning and a ``fleet.memo.rejected_shards`` count, so a store that
never warms is visible.

Entries are pickled.  Pickle byte-streams are not canonical across
processes (hash randomization perturbs set iteration order), which is
why shards are probed by in-process dict equality after load, never by
byte comparison.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import uuid
from pathlib import Path

from repro.telemetry.logging import get_logger
from repro.telemetry.metrics import METRICS

_log = get_logger("fleet.memostore")

#: Version of the on-disk entry schema.  Bump whenever the pickled
#: entry layout (``MemoEntry`` / ``QuantEntry`` fields, key structure,
#: or the values inside them) changes; old shards then load as cold
#: instead of misreplaying.  Schema 2: ``TVal`` pickles as a slotted
#: object, and ``InstrId``/``Chain`` pickle their fields only (their
#: cached hash is recomputed on load, since ``str`` hashes differ
#: between processes).  Schema 3: quantized keys lost their charge
#: bucket (supply component ``("q", capacity, low_threshold)``).  Schema
#: 4: the taint in NV tokens and snapshots is by input site
#: (``InputSite``: op and channel, no read time), as violations-only
#: runs build it.  Schema 5: ``ActivationRecord`` pickles as a slotted
#: object.
MEMO_SCHEMA = "repro-memo-5"


def write_atomically(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` through a temp file unique to this call.

    Write-then-rename, so a crash mid-write never leaves a torn file; the
    unique name lets writers of one target -- two saves of one shard, two
    runs sharing a directory -- each rename a whole file of their own
    instead of renaming away (or clobbering) another writer's temp file.
    """
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class MemoStore:
    """Content-addressed shard files under one root directory."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        #: shard files successfully read (not entries; see MemoStats)
        self.loads = 0
        #: shard files successfully written
        self.stores = 0

    def shard_path(self, shard_token: str) -> Path:
        digest = hashlib.blake2b(
            shard_token.encode("utf-8"), digest_size=16
        ).hexdigest()
        return self.root / f"memo-{digest}.pkl"

    def load(self, shard_token: str) -> dict:
        """Entries of one shard; ``{}`` for missing/corrupt/mismatched.

        A missing shard is a cold start and stays silent; a shard that
        exists but cannot be used is rejected with a warning.
        """
        path = self.shard_path(shard_token)
        try:
            payload = pickle.loads(path.read_bytes())
        except FileNotFoundError:
            return {}
        except Exception as exc:  # corrupt pickles raise nearly anything
            return _reject(path, f"unreadable ({type(exc).__name__}: {exc})")
        if not isinstance(payload, dict) or payload.get("schema") != MEMO_SCHEMA:
            return _reject(path, f"not a {MEMO_SCHEMA} shard")
        if payload.get("shard") != shard_token:
            return _reject(path, "written for another program")
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            return _reject(path, "malformed entries")
        self.loads += 1
        return entries

    def save(self, shard_token: str, entries: dict) -> bool:
        """Write one shard atomically; False when entries won't pickle."""
        payload = {
            "schema": MEMO_SCHEMA,
            "shard": shard_token,
            "entries": entries,
        }
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # An unpicklable entry (exotic supply state) only loses
            # persistence, never the run.
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        write_atomically(self.shard_path(shard_token), blob)
        self.stores += 1
        return True


def _reject(path: Path, reason: str) -> dict:
    """Log and count one unusable shard; the run goes on cold."""
    _log.warning(f"ignoring memo shard {path}: {reason}")
    METRICS.counter("fleet.memo.rejected_shards").inc()
    return {}
