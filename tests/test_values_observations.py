"""Runtime value and observation container tests."""

from repro.ir.instructions import InstrId
from repro.runtime import observations as obs
from repro.runtime.values import (
    NO_TAINT,
    InputEvent,
    RefValue,
    TVal,
    merge_taint,
)


class TestTVal:
    def test_of_coerces_bool(self):
        assert TVal.of(True).value == 1
        assert TVal.of(False).value == 0

    def test_as_bool(self):
        assert TVal(5).as_bool is True
        assert TVal(0).as_bool is False

    def test_values_are_immutable_and_hashable(self):
        a = TVal(3)
        b = TVal(3)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestMergeTaint:
    def test_empty_merge(self):
        assert merge_taint() == NO_TAINT
        assert merge_taint(NO_TAINT, NO_TAINT) == NO_TAINT

    def test_union(self):
        e1 = InputEvent(uid=InstrId("f", 1), channel="a", tau=1)
        e2 = InputEvent(uid=InstrId("f", 2), channel="b", tau=2)
        merged = merge_taint(frozenset({e1}), frozenset({e2}))
        assert merged == frozenset({e1, e2})

    def test_merge_with_empty_returns_other(self):
        e1 = InputEvent(uid=InstrId("f", 1), channel="a", tau=1)
        taint = frozenset({e1})
        assert merge_taint(taint, NO_TAINT) == taint


class TestRefValue:
    def test_str(self):
        assert str(RefValue(depth=0, name="x")) == "&[0]x"


class TestTrace:
    def mk_trace(self):
        trace = obs.Trace()
        trace.emit(obs.InputObs(tau=1, uid=InstrId("m", 1), channel="a", value=5))
        trace.emit(obs.OutputObs(tau=2, uid=InstrId("m", 2), op="log", values=(5,)))
        trace.emit(obs.RebootObs(tau=10, off_cycles=8, mode="jit"))
        trace.emit(
            obs.ViolationObs(
                tau=11, uid=InstrId("m", 3), pid="p", kind="fresh", missing=()
            )
        )
        return trace

    def test_typed_accessors(self):
        trace = self.mk_trace()
        assert len(trace.inputs) == 1
        assert len(trace.outputs) == 1
        assert len(trace.reboots) == 1
        assert len(trace.violations) == 1

    def test_iteration_and_len(self):
        trace = self.mk_trace()
        assert len(trace) == 4
        assert [e.tau for e in trace] == [1, 2, 10, 11]

    def test_segment_by_tau(self):
        trace = self.mk_trace()
        segment = trace.segment(2, 10)
        assert [e.tau for e in segment] == [2, 10]


class TestRunStats:
    def test_total_cycles(self):
        stats = obs.RunStats(cycles_on=10, cycles_off=90)
        assert stats.total_cycles == 100


_VALUES = """
from repro.analysis.provenance import Chain
from repro.ir.instructions import InstrId
from repro.runtime.values import InputEvent, TVal

op, site = InstrId("read_accel", 3), InstrId("main", 2)
chain = Chain((site, op))
chains = frozenset({chain, Chain((op,)), Chain((InstrId("main", 7),))})
value = TVal(7, frozenset({InputEvent(op, "accel", 40)}))
values = (op, chain, value, chains)
"""

_DUMP = _VALUES + """
import pickle, sys
sys.stdout.buffer.write(pickle.dumps(values))
"""

_LOAD = _VALUES + """
import pickle, sys
loaded = pickle.loads(sys.stdin.buffer.read())
assert loaded == values
assert [hash(v) for v in loaded] == [hash(v) for v in values]
got_op, got_chain, got_value, got_chains = loaded
assert got_op in {op} and got_chain in chains and got_value in {value}
assert chain in got_chains and Chain((site, op)) in got_chains
assert got_chains.issuperset(chains) and chains.issuperset(got_chains)
assert {got_chain}.issuperset([chain])
print("ok")
"""


class TestPicklingAcrossHashSeeds:
    def test_values_pickled_under_one_seed_work_under_another(self):
        """Memo shards and worker results cross processes whose ``str``
        hashes differ: ``InstrId``/``Chain`` cache their hash, so it must
        be recomputed on load, never pickled."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")

        def python(code, seed, data=None):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", code], input=data, env=env,
                capture_output=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr.decode()
            return done.stdout

        blob = python(_DUMP, 1)
        assert python(_LOAD, 2, blob).strip() == b"ok"
