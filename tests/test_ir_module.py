"""IR container, verifier, and printer tests."""

import pytest

from repro.ir import instructions as ir
from repro.ir.lowering import lower_program
from repro.ir.module import IRError
from repro.ir.printer import print_instr, print_ir_function, print_module
from repro.ir.verify import verify_module
from repro.lang.parser import parse_program


def lower(source: str):
    return lower_program(parse_program(source))


class TestModuleQueries:
    def test_instr_lookup_by_uid(self):
        module = lower("fn main() { skip; }")
        for instr in module.all_instrs():
            assert module.instr(instr.uid) is instr

    def test_unknown_function_raises(self):
        module = lower("fn main() { skip; }")
        with pytest.raises(IRError):
            module.function("ghost")

    def test_unknown_label_raises(self):
        module = lower("fn main() { skip; }")
        with pytest.raises(IRError):
            module.function("main").instr_by_label(999)

    def test_input_and_annot_collections(self):
        module = lower(
            "inputs ch;\nfn main() { let x = input(ch); Fresh(x); log(x); }"
        )
        assert len(module.input_instrs()) == 1
        assert len(module.annot_instrs()) == 1

    def test_fresh_region_ids_unique(self):
        module = lower("fn main() { skip; }")
        ids = {module.fresh_region() for _ in range(10)}
        assert len(ids) == 10

    def test_block_of_and_position_of_agree(self):
        module = lower("fn main() { if 1 < 2 { alarm(); } log(3); }")
        func = module.function("main")
        for instr in func.all_instrs():
            block = func.block_of(instr.uid)
            pos_block, _ = func.position_of(instr.uid)
            assert block == pos_block


class TestVerifier:
    def test_accepts_lowered_module(self):
        module = lower(
            "inputs ch;\nnonvolatile g = 0;\n"
            "fn f(&p) { *p = input(ch); }\n"
            "fn main() { let x = 0; f(&x); g = x; log(g); }"
        )
        verify_module(module)

    def test_detects_dangling_successor(self):
        module = lower("fn main() { skip; }")
        func = module.function("main")
        func.blocks[func.entry].terminator = func.stamp(ir.Jump(target="ghost"))
        with pytest.raises(IRError, match="dangling"):
            verify_module(module)

    def test_detects_missing_terminator(self):
        module = lower("fn main() { skip; }")
        func = module.function("main")
        func.blocks[func.entry].terminator = None
        with pytest.raises(IRError, match="no terminator"):
            verify_module(module)

    def test_detects_duplicate_labels(self):
        module = lower("fn main() { skip; skip; }")
        func = module.function("main")
        a, b = func.blocks[func.entry].instrs[:2]
        b.uid = a.uid
        with pytest.raises(IRError, match="duplicate label"):
            verify_module(module)

    def test_detects_unbalanced_atomic(self):
        module = lower("fn main() { skip; }")
        func = module.function("main")
        start = func.stamp(ir.AtomicStart(region="r9"))
        func.blocks[func.entry].instrs.insert(0, start)
        with pytest.raises(IRError, match="open atomic region"):
            verify_module(module)

    def test_end_just_before_ret_balances(self):
        # Inference ends a region at the exit landing pad, just before
        # ``ret``: the depth at ``ret`` is what must be zero.
        module = lower("fn main() { if 1 < 2 { alarm(); } log(3); }")
        func = module.function("main")
        assert func.exit != func.entry
        func.blocks[func.entry].instrs.insert(
            0, func.stamp(ir.AtomicStart(region="r9"))
        )
        func.blocks[func.exit].instrs.append(
            func.stamp(ir.AtomicEnd(region="r9"))
        )
        verify_module(module)

    def test_detects_region_opened_in_exit_block(self):
        module = lower("fn main() { skip; }")
        func = module.function("main")
        assert func.exit != func.entry
        func.blocks[func.exit].instrs.append(
            func.stamp(ir.AtomicStart(region="r9"))
        )
        with pytest.raises(IRError, match="open atomic region"):
            verify_module(module)

    def test_detects_stray_end(self):
        module = lower("fn main() { skip; }")
        func = module.function("main")
        end = func.stamp(ir.AtomicEnd(region="r9"))
        func.blocks[func.entry].instrs.insert(0, end)
        with pytest.raises(IRError, match="without matching start"):
            verify_module(module)

    def test_detects_bad_call_arity(self):
        module = lower("fn f(a) { skip; }\nfn main() { f(1); }")
        func = module.function("main")
        for block in func.blocks.values():
            for instr in block.instrs:
                if isinstance(instr, ir.CallInstr):
                    instr.args = []
        with pytest.raises(IRError, match="arity"):
            verify_module(module)


class TestPrinter:
    def test_print_module_smoke(self):
        module = lower(
            "inputs ch;\nnonvolatile g = 0;\nnonvolatile a[2];\n"
            "fn get() { let v = input(ch); return v; }\n"
            "fn main() {\n"
            "  let x = get();\n"
            "  Fresh(x);\n"
            "  if x > 1 { alarm(); }\n"
            "  atomic { g = g + 1; }\n"
            "  a[0] = x;\n"
            "  work(5);\n"
            "  log(x);\n"
            "}"
        )
        text = print_module(module)
        assert "fn main()" in text
        assert "input(ch)" in text
        assert "annot fresh(x)" in text
        assert "atomic_start" in text and "atomic_end" in text
        assert "[nv]" in text
        assert "work(5)" in text

    def test_every_instruction_kind_prints(self):
        module = lower(
            "inputs ch;\nnonvolatile a[2];\n"
            "fn f(&p, v) { *p = v; return v; }\n"
            "fn main() {\n"
            "  let x = input(ch);\n"
            "  Consistent(x, 1);\n"
            "  let y = 0;\n"
            "  let r = f(&y, x);\n"
            "  a[0] = r;\n"
            "  if r > 0 { alarm(); } else { skip; }\n"
            "  work(3);\n"
            "}"
        )
        for instr in module.all_instrs():
            line = print_instr(instr)
            assert str(instr.uid.label) in line

    def test_function_print_orders_entry_first_exit_last(self):
        module = lower("fn main() { if 1 < 2 { alarm(); } }")
        text = print_ir_function(module.function("main"))
        lines = [l.strip() for l in text.splitlines() if l.strip().endswith(":")]
        assert lines[0].startswith("entry")
        assert lines[-1].startswith("exit")
