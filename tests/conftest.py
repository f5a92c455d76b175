"""Shared fixtures: canonical programs and compiled builds."""

from __future__ import annotations

import os

# Debug builds throughout the suite: the pass manager re-verifies the IR
# after every pass and the check optimizer re-verifies its plan, so a
# broken transform fails the offending test with the pass named.
os.environ.setdefault("REPRO_DEBUG_VERIFY", "1")

import pytest  # noqa: E402

from repro.core.passes import Lower, get_config  # noqa: E402
from repro.core.pipeline import compile_source  # noqa: E402
from repro.sensors.environment import Environment, steps  # noqa: E402

#: The weather-station program of Figure 2: a thermometer alarm (freshness)
#: plus a pressure/humidity log pair (temporal consistency).
WEATHER_SRC = """\
inputs temp, pres, hum;

fn main() {
  let x = input(temp);
  Fresh(x);
  if x > 5 {
    alarm();
  }
  let consistent(1) y = input(pres);
  let consistent(1) z = input(hum);
  log(y, z);
}
"""

#: The Figure 6 program: inputs reached through call chains, including two
#: distinct calls to the same sensor function.
CALLS_SRC = """\
inputs sense_t, sense_p;

fn tmp() {
  let t = input(sense_t);
  let t2 = t / 2;
  return t2;
}

fn pres() {
  let p = input(sense_p);
  let p2 = p + 1;
  return p2;
}

fn confirm() {
  let consistent(1) y = pres();
  let consistent(1) y2 = pres();
  log(y, y2);
}

fn app() {
  let x = tmp();
  Fresh(x);
  log(x);
}

fn main() {
  app();
  confirm();
}
"""

#: Nonvolatile state exercising WAR dependencies and undo logging.
NV_SRC = """\
inputs ch;
nonvolatile total = 0;
nonvolatile count = 0;
nonvolatile ring[4];

fn main() {
  let v = input(ch);
  Fresh(v);
  total = total + v;
  count = count + 1;
  ring[count % 4] = v;
  log(total);
}
"""


#: The JIT-only baseline with counted loops kept as real back edges.
JIT_LOOPS = get_config("jit").replacing(
    "jit-loops",
    "JIT-only, repeat bodies not unrolled",
    lower=Lower(keep_manual_atomics=False, unroll_loops=False),
)


@pytest.fixture(scope="session")
def weather_ocelot():
    return compile_source(WEATHER_SRC, "ocelot")


@pytest.fixture(scope="session")
def weather_jit():
    return compile_source(WEATHER_SRC, "jit")


@pytest.fixture(scope="session")
def weather_atomics():
    return compile_source(WEATHER_SRC, "atomics")


@pytest.fixture(scope="session")
def calls_ocelot():
    return compile_source(CALLS_SRC, "ocelot")


@pytest.fixture(scope="session")
def nv_ocelot():
    return compile_source(NV_SRC, "ocelot")


@pytest.fixture()
def weather_env():
    """Temperature steps across the alarm threshold; pres/hum flip together."""
    return Environment(
        {
            "temp": steps([2, 9], 4000),
            "pres": steps([100, 60], 4000),
            "hum": steps([20, 85], 4000),
        }
    )


@pytest.fixture()
def flat_env():
    return Environment.constant_for(["temp", "pres", "hum", "ch", "sense_t", "sense_p"], 7)
