"""The shared process pool behind campaigns and fleets (``repro.parallel``).

``fork_map`` keeps item order, hands a worker's exception back
unchanged, and runs in-process when it would start one worker.  A worker
that dies without answering must surface as ``WorkerError`` within
seconds, not as a hang: each dead-worker case runs in a fresh
interpreter under a 60 s timeout, so a pool that hangs fails its test
instead of hanging the suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.parallel import fork_map

ROOT = Path(__file__).resolve().parent.parent


def _square(value: int) -> int:
    return value * value


def _reject(value: int) -> int:
    raise ValueError(f"bad item {value}")


def _pid(_item) -> int:
    return os.getpid()


class TestForkMap:
    def test_results_keep_item_order(self):
        items = list(range(12))
        assert fork_map(_square, items, (), 3) == [v * v for v in items]

    def test_worker_exception_reaches_the_caller(self):
        with pytest.raises(ValueError, match="bad item"):
            fork_map(_reject, [1, 2], (), 2)

    def test_one_worker_runs_in_process(self):
        assert fork_map(_pid, [0, 1, 2], (), 1) == [os.getpid()] * 3
        assert fork_map(_pid, [0], (), 4) == [os.getpid()]
        assert os.getpid() not in fork_map(_pid, [0, 1], (), 2)


#: Replaces the campaign's job runner: workers die on cem/jit jobs only.
_KILL_CAMPAIGN_WORKER = """
import os
import repro.eval.campaign as campaign

_real = campaign.execute_job

def _die(job):
    if (job.app, job.config) == ("cem", "jit"):
        os._exit(3)
    return _real(job)

campaign.execute_job = _die
"""

#: Replaces the vector executor's worker entry: the first shard's worker
#: dies.
_KILL_FLEET_WORKER = """
import os
import repro.fleet.vector as vector

_real = vector._run_worker

def _die(payload):
    if payload[0][0].index == 0:
        os._exit(3)
    return _real(payload)

vector._run_worker = _die
"""

_TIMED = """
import time
from repro.parallel import WorkerError

started = time.perf_counter()
try:
    run()
except WorkerError as exc:
    print(f"WorkerError {time.perf_counter() - started:.2f}: {exc}")
"""


def _python(code: str) -> subprocess.CompletedProcess:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=ROOT,
        env=env,
    )


def _assert_worker_error_within_seconds(done: subprocess.CompletedProcess):
    assert done.returncode == 0, done.stderr
    word, seconds, _ = done.stdout.split(maxsplit=2)
    assert word == "WorkerError", done.stdout
    assert float(seconds.rstrip(":")) < 20


def _assert_one_line_cli_error(done: subprocess.CompletedProcess):
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.strip().splitlines() == [
        "a worker process died before returning its result"
    ]


class TestDeadWorker:
    def test_campaign_raises_worker_error(self):
        done = _python(
            _KILL_CAMPAIGN_WORKER
            + """
def run():
    spec = campaign.CampaignSpec(
        apps=("cem",), configs=("ocelot", "jit"), seeds=(0, 1),
        budget_cycles=20_000,
    )
    campaign.run_campaign(spec, campaign.CampaignExecutor(processes=2))
"""
            + _TIMED
        )
        _assert_worker_error_within_seconds(done)

    def test_fleet_raises_worker_error(self):
        done = _python(
            _KILL_FLEET_WORKER
            + """
from repro.fleet import DeviceClass, FleetSpec, run_fleet

def run():
    spec = FleetSpec(
        name="dead-worker", fleet_seed=3, budget_cycles=15_000,
        classes=(DeviceClass(name="tire", app="tire", config="ocelot",
                             count=40),),
    )
    run_fleet(spec, "vector", processes=2)
"""
            + _TIMED
        )
        _assert_worker_error_within_seconds(done)

    def test_campaign_cli_reports_one_line(self):
        done = _python(
            _KILL_CAMPAIGN_WORKER
            + """
from repro.cli import main

main(["campaign", "examples/campaign_small.json", "--jobs", "2"])
"""
        )
        _assert_one_line_cli_error(done)

    def test_fleet_cli_reports_one_line(self):
        done = _python(
            _KILL_FLEET_WORKER
            + """
from repro.cli import main

main(["fleet", "examples/fleet_small.json", "--devices", "40",
      "--executor", "vector", "--jobs", "2"])
"""
        )
        _assert_one_line_cli_error(done)
