"""Parser unit tests."""

import pytest

from repro.lang import ast
from repro.lang.errors import ParseError, SemanticError
from repro.lang.parser import parse_function, parse_program


def parse_main_body(body: str) -> list[ast.Stmt]:
    program = parse_program(f"inputs ch;\nfn main() {{\n{body}\n}}")
    return program.functions["main"].body


class TestDeclarations:
    def test_inputs_declaration(self):
        program = parse_program("inputs a, b, c;\nfn main() { skip; }")
        assert program.channels == ["a", "b", "c"]

    def test_nonvolatile_scalar(self):
        program = parse_program("nonvolatile x = 42;\nfn main() { skip; }")
        assert program.globals["x"].init == 42

    def test_nonvolatile_negative_init(self):
        program = parse_program("nonvolatile x = -3;\nfn main() { skip; }")
        assert program.globals["x"].init == -3

    def test_nonvolatile_default_zero(self):
        program = parse_program("nonvolatile x;\nfn main() { skip; }")
        assert program.globals["x"].init == 0

    def test_array_declaration(self):
        program = parse_program("nonvolatile a[4];\nfn main() { skip; }")
        assert program.arrays["a"].size == 4
        assert program.arrays["a"].initial_values() == [0, 0, 0, 0]

    def test_array_with_initializer(self):
        program = parse_program(
            "nonvolatile a[3] = [1, -2, 3];\nfn main() { skip; }"
        )
        assert program.arrays["a"].initial_values() == [1, -2, 3]

    def test_array_initializer_length_mismatch(self):
        with pytest.raises(SemanticError):
            parse_program("nonvolatile a[2] = [1, 2, 3];\nfn main() { skip; }")

    def test_duplicate_function_rejected(self):
        with pytest.raises(SemanticError):
            parse_program("fn f() { skip; }\nfn f() { skip; }")

    def test_duplicate_nonvolatile_rejected(self):
        with pytest.raises(SemanticError):
            parse_program("nonvolatile x = 1;\nnonvolatile x = 2;\nfn main() { skip; }")


class TestFunctions:
    def test_params(self):
        func = parse_function("fn f(a, b) { return a + b; }")
        assert [p.name for p in func.params] == ["a", "b"]

    def test_by_ref_param(self):
        func = parse_function("fn f(&out) { *out = 1; }")
        assert func.params[0].by_ref

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_function("fn f() { skip; } extra")


class TestStatements:
    def test_let(self):
        (stmt,) = parse_main_body("let x = 1;")
        assert isinstance(stmt, ast.Let) and stmt.annot is None

    def test_let_fresh(self):
        (stmt,) = parse_main_body("let fresh x = input(ch);")
        assert isinstance(stmt, ast.Let)
        assert stmt.annot == ast.AnnotKind.FRESH

    def test_let_consistent(self):
        (stmt,) = parse_main_body("let consistent(3) x = input(ch);")
        assert stmt.annot == ast.AnnotKind.CONSISTENT
        assert stmt.set_id == 3

    def test_fresh_statement_annotation(self):
        stmts = parse_main_body("let x = 1; Fresh(x);")
        assert isinstance(stmts[1], ast.AnnotStmt)
        assert stmts[1].kind == ast.AnnotKind.FRESH
        assert stmts[1].var == "x"

    def test_consistent_statement_annotation(self):
        stmts = parse_main_body("let x = 1; Consistent(x, 2);")
        assert stmts[1].kind == ast.AnnotKind.CONSISTENT
        assert stmts[1].set_id == 2

    def test_freshconsistent_annotation(self):
        stmts = parse_main_body("let x = 1; FreshConsistent(x, 1);")
        assert stmts[1].kind == ast.AnnotKind.FRESHCON

    def test_assignment(self):
        stmts = parse_main_body("let x = 1; x = x + 1;")
        assert isinstance(stmts[1], ast.Assign)

    def test_store_ref(self):
        func = parse_function("fn f(&p) { *p = 9; }")
        assert isinstance(func.body[0], ast.StoreRef)

    def test_array_store(self):
        program = parse_program(
            "nonvolatile a[2];\nfn main() { a[0] = 5; }"
        )
        stmt = program.functions["main"].body[0]
        assert isinstance(stmt, ast.StoreIndex)

    def test_if_else(self):
        (stmt,) = parse_main_body("if 1 < 2 { skip; } else { alarm(); }")
        assert isinstance(stmt, ast.If)
        assert len(stmt.then_body) == 1 and len(stmt.else_body) == 1

    def test_else_if_chain(self):
        (stmt,) = parse_main_body(
            "if 1 < 2 { skip; } else if 2 < 3 { skip; } else { skip; }"
        )
        assert isinstance(stmt.else_body[0], ast.If)

    def test_repeat(self):
        (stmt,) = parse_main_body("repeat 4 { work(1); }")
        assert isinstance(stmt, ast.Repeat) and stmt.count == 4

    def test_repeat_zero_rejected(self):
        with pytest.raises(SemanticError):
            parse_main_body("repeat 0 { skip; }")

    def test_atomic_block(self):
        (stmt,) = parse_main_body("atomic { skip; }")
        assert isinstance(stmt, ast.Atomic)

    def test_return_with_and_without_value(self):
        func = parse_function("fn f() { return; }")
        assert func.body[0].expr is None
        func = parse_function("fn f() { return 3; }")
        assert func.body[0].expr.value == 3

    def test_call_statement(self):
        (stmt,) = parse_main_body("log(1, 2);")
        assert isinstance(stmt, ast.ExprStmt)
        assert stmt.expr.func == "log"


class TestExpressions:
    def parse_expr(self, text: str) -> ast.Expr:
        (stmt,) = parse_main_body(f"let x = {text};")
        return stmt.expr

    def test_precedence_mul_over_add(self):
        expr = self.parse_expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.rhs.op == "*"

    def test_precedence_cmp_over_and(self):
        expr = self.parse_expr("1 < 2 && 3 < 4")
        assert expr.op == "&&"
        assert expr.lhs.op == "<"

    def test_precedence_and_over_or(self):
        expr = self.parse_expr("true || false && true")
        assert expr.op == "||"

    def test_parentheses(self):
        expr = self.parse_expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.lhs.op == "+"

    def test_unary_minus_and_not(self):
        assert self.parse_expr("-5").op == "-"
        assert self.parse_expr("!true").op == "!"

    def test_input_expression(self):
        expr = self.parse_expr("input(ch)")
        assert isinstance(expr, ast.Input) and expr.channel == "ch"

    def test_nested_call(self):
        expr = self.parse_expr("min(1, max(2, 3))")
        assert expr.func == "min"
        assert expr.args[1].func == "max"

    def test_array_index_expression(self):
        program = parse_program("nonvolatile a[2];\nfn main() { let x = a[1]; }")
        expr = program.functions["main"].body[0].expr
        assert isinstance(expr, ast.Index)

    def test_left_associativity(self):
        expr = self.parse_expr("10 - 3 - 2")
        assert expr.op == "-"
        assert expr.lhs.op == "-"
        assert expr.rhs.value == 2


class TestLabels:
    def test_labels_assigned_in_lexical_order(self):
        program = parse_program(
            "inputs ch;\nfn main() { let x = 1; if x < 2 { alarm(); } log(x); }"
        )
        labels = [s.label for s in ast.walk_stmts(program.functions["main"].body)]
        assert labels == sorted(labels)
        assert labels[0] == 1


class TestParseErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "fn main() { let = 1; }",
            "fn main() { if { skip; } }",
            "fn main() { let x = ; }",
            "fn main() { x + ; }",
            "fn main() { let x = 1 }",
            "fn () { skip; }",
            "inputs ;",
        ],
    )
    def test_malformed_inputs_raise(self, source):
        with pytest.raises(ParseError):
            parse_program(source)
