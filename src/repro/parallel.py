"""One process pool for every fan-out: campaign jobs and fleet shards.

:func:`fork_map` is the only place the package starts worker processes.
Workers prefer ``fork`` (inheriting the parent's warm compile cache) and
re-register the named build configurations, so custom
:class:`~repro.core.passes.BuildConfig` axes resolve by name in any
worker.  A :class:`concurrent.futures.ProcessPoolExecutor` watches its
workers: one that dies without answering (killed, out of memory,
``os._exit``) raises :class:`WorkerError` at once instead of a hang.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.core.passes import BuildConfig, get_config, register_config


class WorkerError(RuntimeError):
    """A worker process died before returning its result."""


def _register_configs(configs: tuple[BuildConfig, ...]) -> None:
    for config in configs:
        register_config(config, replace=True)


def fork_map(
    fn: Callable, items: Sequence, configs: Iterable[str], processes: int
) -> list:
    """``[fn(item) for item in items]`` on up to ``processes`` workers.

    Results keep ``items`` order; ``configs`` names the build
    configurations the items use.  An exception raised by ``fn`` reaches
    the caller unchanged; a worker that dies raises :class:`WorkerError`.
    With at most one worker to start, the items run in-process.
    """
    if min(processes, len(items)) <= 1:
        return [fn(item) for item in items]
    # Imported here so that single-process runs never load the pool.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    pool = ProcessPoolExecutor(
        max_workers=min(processes, len(items)),
        mp_context=context,
        initializer=_register_configs,
        initargs=(tuple(get_config(name) for name in sorted(set(configs))),),
    )
    try:
        return list(pool.map(fn, items))
    except BrokenProcessPool:
        raise WorkerError(
            "a worker process died before returning its result"
        ) from None
    finally:
        pool.shutdown(cancel_futures=True)
