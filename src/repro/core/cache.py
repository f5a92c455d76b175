"""Content-addressed cache of compiled programs.

The evaluation sweeps the same six benchmark sources through the same
build configurations for every table and figure; compiling is by far the
most expensive per-job step, so the campaign engine, the CLI, and the
benchmarks all share one :class:`CompileCache`.

Keys are content-addressed: the SHA-256 of the program text plus the
*pass-pipeline fingerprint* of the build configuration (see
:func:`repro.core.passes.pipeline_fingerprint`) plus every
:class:`~repro.core.pipeline.PipelineOptions` field.  Editing one
character of source, flipping one option, or reordering / re-parameterizing
one pass yields a different key, so stale builds can never be served --
while two configurations that declare the *same* pipeline share builds,
whatever their names.  (One consequence of sharing: the served
``CompiledProgram.config`` carries the name of whichever same-pipeline
configuration compiled first.)

The cache also parses each source once: it keeps the parsed program per
source digest for as long as one of that source's builds is cached, and
compiles every configuration of the source from it.  No pass writes to
the AST, so those builds share ``CompiledProgram.program``, which is
read-only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.core import pipeline
from repro.core.passes import resolve_config
from repro.core.pipeline import (
    CONFIG_OCELOT,
    CompiledProgram,
    ConfigLike,
    PipelineOptions,
)
from repro.lang import ast


@dataclass(frozen=True)
class CacheKey:
    """Identity of one build: source digest x pipeline x options."""

    source_hash: str
    #: the configuration's pass-pipeline fingerprint (not its name)
    pipeline: str
    options: tuple

    @classmethod
    def make(
        cls,
        source: str,
        config: ConfigLike = CONFIG_OCELOT,
        options: Optional[PipelineOptions] = None,
    ) -> "CacheKey":
        options = options or PipelineOptions()
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        return cls(
            source_hash=digest,
            pipeline=resolve_config(config).fingerprint(),
            options=dataclasses.astuple(options),
        )


@dataclass
class CacheStats:
    """Hit/miss counters; ``compiles`` counts actual pipeline runs."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def compiles(self) -> int:
        return self.misses

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def snapshot(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "compiles": self.compiles,
            "evictions": self.evictions,
        }


class CompileCache:
    """LRU cache of :class:`CompiledProgram` keyed by build identity.

    Thread-safe for lookups; a compile miss (and the parse it may need)
    runs outside the lock so concurrent misses on *different* keys do not
    serialize (concurrent misses on the same key may compile twice, last
    write wins -- the pipeline is deterministic, so both results are
    identical).

    Parsed programs are kept per source digest while a build of that
    source is cached: :meth:`clear` drops them, and so does evicting a
    source's last build.  Parsing and compiling go through
    ``repro.core.pipeline.parse_program`` and ``compile_program``, looked
    up at call time.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None)")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: OrderedDict[CacheKey, CompiledProgram] = OrderedDict()
        #: source digest -> its parsed program, shared by its builds
        self._programs: dict[str, ast.Program] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_compile(
        self,
        source: str,
        config: ConfigLike = CONFIG_OCELOT,
        options: Optional[PipelineOptions] = None,
    ) -> CompiledProgram:
        compiled, _ = self.get_or_compile_with_info(source, config, options)
        return compiled

    def get_or_compile_with_info(
        self,
        source: str,
        config: ConfigLike = CONFIG_OCELOT,
        options: Optional[PipelineOptions] = None,
    ) -> tuple[CompiledProgram, bool]:
        """The build for (source, config, options) plus a was-cached flag."""
        key = CacheKey.make(source, config, options)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return cached, True
            self.stats.misses += 1
            program = self._programs.get(key.source_hash)
        if program is None:
            program = pipeline.parse_program(source)
        compiled = pipeline.compile_program(
            program, config=config, options=options, source=source
        )
        with self._lock:
            self._programs.setdefault(key.source_hash, program)
        self.put(key, compiled)
        return compiled, False

    def put(self, key: CacheKey, compiled: CompiledProgram) -> None:
        with self._lock:
            self._entries[key] = compiled
            self._entries.move_to_end(key)
            while self.max_entries is not None and len(self._entries) > self.max_entries:
                evicted, _ = self._entries.popitem(last=False)
                self.stats.evictions += 1
                if all(k.source_hash != evicted.source_hash for k in self._entries):
                    self._programs.pop(evicted.source_hash, None)

    def clear(self) -> None:
        """Drop every entry and parsed program (and reset the statistics)."""
        with self._lock:
            self._entries.clear()
            self._programs.clear()
            self.stats = CacheStats()


#: Process-wide cache shared by the CLI, the evaluation, and benchmarks.
GLOBAL_CACHE = CompileCache()


def compile_cached(
    source: str,
    config: ConfigLike = CONFIG_OCELOT,
    options: Optional[PipelineOptions] = None,
    cache: Optional[CompileCache] = None,
) -> CompiledProgram:
    """Compile through ``cache`` (default: the process-wide cache)."""
    return (cache or GLOBAL_CACHE).get_or_compile(source, config, options)
