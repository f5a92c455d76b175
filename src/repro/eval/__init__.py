"""Evaluation harness: one module per paper table/figure.

Run everything with ``python -m repro eval`` (``--jobs N`` for workers).
"""

from repro.eval.campaign import (
    AggregateRow,
    CampaignError,
    CampaignExecutor,
    CampaignResult,
    CampaignSpec,
    EnvironmentSpec,
    JobResult,
    JobSpec,
    SupplySpec,
    execute_job,
    run_campaign,
)
from repro.eval.figure7 import figure7, measure_figure7
from repro.eval.figure8 import figure8, measure_figure8
from repro.eval.profiles import (
    CONTINUOUS_ACTIVATIONS,
    STANDARD_BUDGET_CYCLES,
    STANDARD_PROFILE,
    EnergyProfile,
)
from repro.eval.report import Table, geometric_mean
from repro.eval.runner import run_all
from repro.eval.table1 import table1
from repro.eval.table2 import measure_table2a, measure_table2b, table2a, table2b
from repro.eval.table3 import table3
from repro.eval.table4 import measure_table4, table4
from repro.eval.regions_report import measure_regions_report, regions_report
from repro.eval.sensitivity import (
    sensitivity_tables,
    sweep_capacity,
    sweep_harvest_rate,
)
from repro.eval.timeline import Timeline, build_timeline, render_timeline

__all__ = [
    "AggregateRow",
    "CampaignError",
    "CampaignExecutor",
    "CampaignResult",
    "CampaignSpec",
    "EnvironmentSpec",
    "JobResult",
    "JobSpec",
    "SupplySpec",
    "execute_job",
    "run_campaign",
    "figure7",
    "measure_figure7",
    "figure8",
    "measure_figure8",
    "CONTINUOUS_ACTIVATIONS",
    "STANDARD_BUDGET_CYCLES",
    "STANDARD_PROFILE",
    "EnergyProfile",
    "Table",
    "geometric_mean",
    "run_all",
    "table1",
    "measure_table2a",
    "measure_table2b",
    "table2a",
    "table2b",
    "table3",
    "measure_table4",
    "table4",
    "Timeline",
    "build_timeline",
    "render_timeline",
    "measure_regions_report",
    "regions_report",
    "sensitivity_tables",
    "sweep_capacity",
    "sweep_harvest_rate",
]
