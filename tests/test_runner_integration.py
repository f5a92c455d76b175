"""Whole-harness integration: ``python -m repro eval`` end to end."""

import pytest

import repro.eval.campaign as campaign
from repro.cli import main as cli_main
from repro.eval.runner import run_all
from repro.parallel import fork_map


@pytest.fixture(scope="module")
def all_tables():
    return run_all(seed=0)


class TestRunAll:
    def test_produces_seven_tables(self, all_tables):
        titles = [t.title for t in all_tables]
        assert len(all_tables) == 7
        assert any("Table 1" in t for t in titles)
        assert any("Figure 7" in t for t in titles)
        assert any("Figure 8" in t for t in titles)
        assert any("Table 2a" in t for t in titles)
        assert any("Table 2b" in t for t in titles)
        assert any("Table 3" in t for t in titles)
        assert any("Table 4" in t for t in titles)

    def test_every_table_renders_both_formats(self, all_tables):
        for table in all_tables:
            assert table.render_text()
            assert table.render_markdown().startswith("###")

    def test_headline_rows_present(self, all_tables):
        table2a = next(t for t in all_tables if "Table 2a" in t.title)
        for row in table2a.rows:
            assert row[1] == "0%"  # Ocelot column
            assert row[2] == "100%"  # JIT column


class TestEntryPoints:
    def test_eval_main_text(self, capsys):
        assert cli_main(["eval", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "Table 2a" in out

    def test_eval_jobs_reach_the_pool(self, capsys, monkeypatch):
        assert cli_main(["eval", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        workers = []

        def spy(fn, items, configs, processes):
            workers.append(processes)
            return fork_map(fn, items, configs, processes)

        monkeypatch.setattr(campaign, "fork_map", spy)
        assert cli_main(["eval", "--jobs", "2"]) == 0
        assert workers and set(workers) == {2}
        assert capsys.readouterr().out == serial

    def test_cli_eval_markdown(self, capsys):
        assert cli_main(["eval", "--markdown", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "### Table 2b" in out
