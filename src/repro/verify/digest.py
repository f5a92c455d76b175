"""Exact canonical machine-state keys for visited-state deduplication.

Two machine states with equal keys have equal *futures* with respect to
detector violations: the key covers every state component a machine
step can read -- nonvolatile memory (values and taint structure), the
detector bit vector, the volatile hoisted-query cache, the frame stack
(including reference cells), the atomic undo context, and completion
state -- as one canonical tuple of plain values.  Keys are compared by
tuple equality, which is exact; nothing is hashed down to a digest.

Two deliberate exclusions, argued in docs/architecture.md:

* **taint timestamps** -- the explorer runs violations-only, so its
  taint is by input site (:class:`~repro.runtime.values.InputSite`: op
  and channel) and holds no read time to exclude.  Detector checks
  consult only the bit vector, so taint never influences control flow
  or violations; it is keyed structurally (uid + channel), which a full
  run's :class:`~repro.runtime.values.InputEvent` taint projects to as
  well.
* **logical time** -- ``tau`` feeds back into behavior only through
  ``env.read(channel, tau)``.  The key therefore includes
  ``env.segment_token(tau)``: for periodic environments that quantizes
  tau to its phase (states one whole period apart behave identically),
  for a time-invariant environment (period 1 -- every signal constant)
  it collapses to a constant, and for aperiodic environments it is raw
  tau, which soundly disables cross-time deduplication.

The JIT checkpoint context is also excluded: it is inert state (only
read at reboot, and any forced failure overwrites it in jit mode before
rebooting), so two states differing only in ``_jit_ctx`` step
identically forever under a verifier that injects failures explicitly.

:func:`state_digest` also builds the *post-failure* key: the key of the
state ``force_power_failure()`` would leave, read off the live machine
without changing it, so the explorer can decide a fork before capturing
it.  Within one atomic region instance that key depends on nothing but
the time token (see :func:`_region_failure_body`), so it is built once
per region instance.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.runtime.engine import CompiledCode, FastFrame
from repro.runtime.values import RefValue


def fast_block_namer(code: CompiledCode) -> Callable:
    """Map a :class:`FastFrame`'s decoded op-list identity back to its
    ``(function, block)`` name pair, for canonical frame encoding."""
    names: dict[int, tuple[str, str]] = {}
    for fname, fn in code.functions.items():
        for bname, ops in fn.blocks.items():
            names[id(ops)] = (fname, bname)

    def name_block(frame: FastFrame) -> tuple[str, str]:
        return names[id(frame.ops)]

    return name_block


class StateKeys:
    """One explorer's key-building context.

    ``name_block`` is required for fast machines (see
    :func:`fast_block_namer`); reference frames carry block names
    themselves.  The tables intern each taint set's and each detector
    chain's projection, so a value seen again costs one lookup instead
    of a sort; ``region`` holds the last region instance's post-failure
    key body.  Keys built through one context compare equal to keys
    built through any other.
    """

    __slots__ = ("name_block", "taints", "chains", "region")

    def __init__(self, name_block: Optional[Callable] = None) -> None:
        self.name_block = name_block
        self.taints: dict[frozenset, tuple] = {}
        self.chains: dict[object, tuple] = {}
        #: (the AtomContext object, its post-failure key minus the time
        #: token); holding the object keeps its identity from being reused
        self.region: Optional[tuple] = None


def _taint_key(taint: frozenset, keys: StateKeys) -> tuple:
    key = keys.taints.get(taint)
    if key is None:
        key = keys.taints[taint] = tuple(
            sorted((e.uid.func, e.uid.label, e.channel) for e in taint)
        )
    return key


def _chain_key(chain, keys: StateKeys) -> tuple:
    key = keys.chains.get(chain)
    if key is None:
        key = keys.chains[chain] = tuple(
            (uid.func, uid.label) for uid in chain.ids
        )
    return key


def _cell_key(cell, keys: StateKeys) -> tuple:
    if type(cell) is RefValue:
        return ("r", cell.depth, cell.name)
    return ("v", cell.value, _taint_key(cell.taint, keys))


def _locals_key(locals_: dict, keys: StateKeys) -> tuple:
    return tuple(
        (name, _cell_key(cell, keys)) for name, cell in sorted(locals_.items())
    )


def _frame_key(frame, keys: StateKeys) -> tuple:
    name_block = keys.name_block
    if name_block is None:  # reference Frame carries names directly
        func, block = frame.func, frame.block
        # call provenance decides which detector checks trigger here
        call_uid = frame.call_uid
        provenance = (
            (call_uid.func, call_uid.label) if call_uid is not None else None
        )
    else:
        func, block = name_block(frame)
        provenance = tuple((uid.func, uid.label) for uid in frame.sites)
    return (
        func,
        block,
        frame.idx,
        frame.ret_dest,
        provenance,
        _locals_key(frame.locals, keys),
    )


def _globals_key(globals_: dict, keys: StateKeys) -> tuple:
    return tuple(
        (name, value.value, _taint_key(value.taint, keys))
        for name, value in sorted(globals_.items())
    )


def _arrays_key(arrays: dict, keys: StateKeys) -> tuple:
    return tuple(
        (name, tuple((c.value, _taint_key(c.taint, keys)) for c in cells))
        for name, cells in sorted(arrays.items())
    )


def _region_failure_body(machine, atom, keys: StateKeys) -> tuple:
    """The post-failure key of an in-region machine, minus its time token.

    Atom-Reboot (``MachineCore._reboot`` after ``_power_failure``) clears
    the detector bits and the hoist cache, applies the undo log to NV,
    restores the region-entry frames and zeroes ``natom``.  Everything
    it reads is fixed at region entry: the undo log and the entry
    frames are never mutated, and ``_assert_logged`` stops every
    in-region NV write outside the log, so the rest of NV is constant
    until the region commits.
    """
    nv = machine.nv
    undo_globals = _globals_key(atom.undo_globals, keys)
    undo_arrays = _arrays_key(atom.undo_arrays, keys)
    entry_frames = tuple(_frame_key(f, keys) for f in atom.frames)
    ret = machine._ret_value
    return (
        machine._done,
        _cell_key(ret, keys) if ret is not None else None,
        _globals_key({**nv.globals, **atom.undo_globals}, keys),
        _arrays_key({**nv.arrays, **atom.undo_arrays}, keys),
        (),
        (),
        entry_frames,
        (atom.region, 0, entry_frames, undo_globals, undo_arrays),
    )


def state_digest(
    machine,
    tau_token: int,
    keys: StateKeys,
    failed: bool = False,
) -> tuple:
    """The exact key of ``machine``'s behavioral state.

    ``tau_token`` is the environment-quantized time token (see the
    module docstring).  With ``failed``, the key is that of the state
    ``machine.force_power_failure()`` would leave, built without
    changing the machine, and ``tau_token`` is the post-failure token.
    """
    atom = machine._atom_ctx
    if failed and atom is not None:
        region = keys.region
        if region is None or region[0] is not atom:
            region = keys.region = (
                atom, _region_failure_body(machine, atom, keys)
            )
        return (tau_token,) + region[1]
    nv = machine.nv
    ret = machine._ret_value
    if failed:
        # JIT-LowPower then JIT-Reboot (MachineCore._power_failure,
        # _reboot): the live frames resume; bits and hoist cache clear.
        bits = hoist = ()
    else:
        bits = tuple(sorted(_chain_key(c, keys) for c in nv.bits.bits))
        hoist = tuple(
            (hid, tuple(sorted(_chain_key(c, keys) for c in missing)))
            for hid, missing in sorted(machine._hoist_cache.items())
        )
    return (
        tau_token,
        machine._done,
        _cell_key(ret, keys) if ret is not None else None,
        _globals_key(nv.globals, keys),
        _arrays_key(nv.arrays, keys),
        bits,
        hoist,
        tuple(_frame_key(f, keys) for f in machine._frames),
        (
            (
                atom.region,
                atom.natom,
                tuple(_frame_key(f, keys) for f in atom.frames),
                _globals_key(atom.undo_globals, keys),
                _arrays_key(atom.undo_arrays, keys),
            )
            if atom is not None
            else None
        ),
    )


__all__ = ["StateKeys", "state_digest", "fast_block_namer"]
