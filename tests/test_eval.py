"""Evaluation harness tests: the shapes the paper's tables/figures report.

These run the real experiments at reduced budgets, asserting the *shape*
claims rather than absolute numbers:

* Table 1: the six benchmark applications.
* Figure 7: Ocelot's geometric mean within 12% of JIT on continuous
  power and no app above 1.35; Atomics-only far slower on CEM;
  Atomics-only not slower than Ocelot on Tire.
* Figure 8: charging time dominates on-time for every app and build.
* Table 2a: Ocelot 0%, JIT 100%.
* Table 2b: Ocelot 0% everywhere over completed runs; JIT ordering Photo
  highest, CEM ~0.
* Tables 3 and 4: the five systems in order; Ocelot cheapest overall;
  exact paper matches where modeled.
"""

import pytest

from repro.eval.figure7 import measure_figure7
from repro.eval.figure8 import measure_figure8
from repro.eval.report import Table, geometric_mean
from repro.eval.table1 import table1
from repro.eval.table2 import measure_table2a, measure_table2b
from repro.eval.table3 import table3
from repro.eval.table4 import measure_table4, table4


@pytest.fixture(scope="module")
def continuous_rows():
    return measure_figure7(activations=12)


class TestTable1:
    def test_six_rows_plus_note(self):
        table = table1()
        assert len(table.rows) == 6
        assert {row[0] for row in table.rows} == {
            "activity", "cem", "greenhouse", "photo", "send_photo", "tire",
        }

    def test_renders_text_and_markdown(self):
        table = table1()
        assert "Table 1" in table.render_text()
        assert table.render_markdown().startswith("###")


class TestFigure7Shape:
    def test_ocelot_close_to_jit(self, continuous_rows):
        overheads = [row.normalized("ocelot") for row in continuous_rows]
        # Paper: "Ocelot has a mean 7% runtime increase".
        assert geometric_mean(overheads) < 1.12
        for row in continuous_rows:
            assert row.normalized("ocelot") <= 1.35, row.app

    def test_cem_atomics_blowup(self, continuous_rows):
        cem = next(r for r in continuous_rows if r.app == "cem")
        assert cem.normalized("atomics") > 1.8
        assert cem.normalized("ocelot") < 1.15

    def test_tire_atomics_not_slower_than_ocelot(self, continuous_rows):
        tire = next(r for r in continuous_rows if r.app == "tire")
        assert tire.normalized("atomics") <= tire.normalized("ocelot") + 0.02

    def test_jit_is_fastest(self, continuous_rows):
        for row in continuous_rows:
            assert row.normalized("ocelot") >= 0.97
            assert row.normalized("atomics") >= 0.97


class TestFigure8Shape:
    def test_charging_dominates(self, continuous_rows):
        rows = measure_figure8(
            budget=120_000, continuous=continuous_rows, seed=3
        )
        for row in rows:
            for config in ("jit", "ocelot", "atomics"):
                on, off = row.cycles[config]
                # The grey stacks: charging outlasts execution.
                assert off > on > 0, (row.app, config)

    def test_on_time_ordering_matches_continuous(self, continuous_rows):
        rows = measure_figure8(
            budget=120_000, continuous=continuous_rows, seed=3
        )
        cem = next(r for r in rows if r.app == "cem")
        assert cem.normalized_on("atomics") > cem.normalized_on("ocelot")


class TestTable2aShape:
    def test_ocelot_zero_jit_hundred(self):
        rows = measure_table2a(off_cycles=20_000)
        for row in rows:
            assert row.rate("ocelot") == 0.0, row.app
            assert row.rate("jit") == 100.0, row.app
            assert row.results["jit"][1] > 0


class TestTable2bShape:
    @pytest.fixture(scope="class")
    def rows(self):
        return measure_table2b(budget=150_000, seed=1)

    def test_ocelot_never_violates(self, rows):
        for row in rows:
            rate, runs = row.results["ocelot"]
            assert runs > 0, row.app
            assert rate == 0.0, row.app

    def test_jit_ordering(self, rows):
        rates = {r.app: r.results["jit"][0] for r in rows}
        assert rates["photo"] >= rates["greenhouse"]
        assert rates["photo"] >= rates["tire"]
        assert rates["cem"] <= 0.05
        assert rates["photo"] > 0.2

    def test_runs_completed(self, rows):
        for row in rows:
            assert row.results["jit"][1] > 5, row.app


class TestTables3And4:
    def test_table3_lists_five_systems(self):
        assert [row[0] for row in table3().rows] == [
            "Ocelot", "JIT", "Atomics", "TICS", "Samoyed",
        ]

    def test_table4_ocelot_column_minimal(self):
        rows = measure_table4()
        for row in rows:
            assert row.ours["ocelot"] <= row.ours["tics"]

    def test_table4_paper_matches(self):
        rows = {r.app: r for r in measure_table4()}
        for app in ("activity", "cem", "greenhouse", "photo", "tire"):
            assert rows[app].ours == rows[app].paper, app
        tire = rows["tire"].ours
        assert (tire["ocelot"], tire["tics"], tire["samoyed"]) == (9, 32, 24)

    def test_table4_renders_every_app(self):
        assert len(table4().rows) == 6


class TestReportRendering:
    def test_table_alignment(self):
        table = Table(title="T", headers=["a", "bb"])
        table.add_row("x", 1)
        table.add_row("yyyy", 2.5)
        text = table.render_text()
        assert "yyyy" in text and "2.50" in text

    def test_geometric_mean(self):
        assert abs(geometric_mean([1.0, 4.0]) - 2.0) < 1e-9
        with pytest.raises(ValueError):
            geometric_mean([])
