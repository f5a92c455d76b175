"""Run the whole evaluation and render every table and figure.

``python -m repro eval`` prints the full set; ``--markdown`` emits the
Markdown used to refresh EXPERIMENTS.md.  Every measured table runs on
the campaign engine, so ``--jobs N`` fans the underlying job matrices
out across worker processes while builds come from the shared compile
cache.
"""

from __future__ import annotations

from repro.eval.campaign import Executor
from repro.eval.figure7 import figure7, measure_figure7
from repro.eval.figure8 import figure8, measure_figure8
from repro.eval.report import Table
from repro.eval.table1 import table1
from repro.eval.table2 import measure_table2a, measure_table2b, table2a, table2b
from repro.eval.table3 import table3
from repro.eval.table4 import table4


def run_all(seed: int = 0, executor: Executor | None = None) -> list[Table]:
    """Every table/figure of the evaluation, measured fresh."""
    continuous = measure_figure7(seed=seed, executor=executor)
    tables = [
        table1(),
        figure7(continuous),
        figure8(
            measure_figure8(seed=seed, continuous=continuous, executor=executor)
        ),
        table2a(measure_table2a(seed=seed, executor=executor)),
        table2b(measure_table2b(seed=seed, executor=executor)),
        table3(),
        table4(),
    ]
    return tables
