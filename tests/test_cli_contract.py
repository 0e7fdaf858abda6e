"""The CLI contract on generated invocations.

Each example draws a subcommand and one to three flags from per-type pools of
ordinary and hostile values, and runs `zonekit` in a child process that caps its
own address space and CPU time.  Whatever the flags, the run must exit 0, 1 or 2
without a traceback or a MemoryError, and a failure prints exactly one `error:`
line (argparse's own usage message aside) and leaves no output file behind.
"""

import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import zonekit

# zonekit under a 1 GiB address-space cap and a 10 s CPU cap, on a host that reports
# 256 MiB of memory: the guards then refuse whatever the cap could not hold
CHILD = """
import os, resource, runpy
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
resource.setrlimit(resource.RLIMIT_CPU, (10, 10))
host = {"SC_PHYS_PAGES": 1 << 16, "SC_PAGE_SIZE": 4096}
os.sysconf = lambda name, sysconf=os.sysconf: host.get(name) or sysconf(name)
runpy.run_module("zonekit", run_name="__main__")
"""

FLOATS = ["0", "-0.0", "inf", "-inf", "nan", "1e300", "-1e300", "1e-300", "0.5", "1", "2.5",
          "-1", "x"]
INTS = ["-1", "0", "1", "3", "1000000", "100000000", "x"]
GRIDS = ["0:1:0.5", "0:0:1", "1:0:0.5", "0:1:0", "0:1:-0.5", "0:1:1e-9", "nan:1:1",
         "0:1:1e300", "0:1", "a:b:c", "-2:2:0.1"]
RANGES = ["0..2", "2..0", "..", "3", "0..1", "-1..2", "x", "0..100000000"]
POINTS = ["", "inf+1j", "0.3+0.2j", "0.1,0.2", "nan", "0.3+0.2j,0.1", "x"]
SIGMAS = ["1", "i", "2"]
# evolve --state files, written by the `states` fixture; "missing" is never written
STATES = {
    "ok": '[{"degrees": [[1, 0]], "re": 1.0, "im": 0.0}]',
    "nan": '[{"degrees": [[1, 0]], "re": NaN, "im": 0.0}]',
    "not_records": '{"x": 1}',
    "two_zones": '[{"degrees": [[1, 0]], "re": 1.0, "im": 0.0},'
                 ' {"degrees": [[0, 1]], "re": 1.0, "im": 0.0}]',
    "k4": '[{"degrees": [[1, 0], [0, 0]], "re": 1.0, "im": 0.0}]',
    "deep": '[{"degrees": [[60, 0]], "re": 1.0, "im": 0.0}]',
}
COMMON = {"--lambda": FLOATS, "--k": ["0", "-2", "3", "6", "2", "4"]}
# subcommand -> (required flags, optional flags); None marks a switch
COMMANDS = {
    "kernel": ({"--t": FLOATS, "--grid": GRIDS}, {"--sigma": SIGMAS, "--a": INTS}),
    "spectrum": ({}, {"--zones": RANGES, "--pmax": INTS}),
    "zones": ({}, {"--zones": RANGES, "--max-degree": INTS}),
    "evolve": ({"--t": FLOATS, "--state": [*STATES, "missing"]},
               {"--sigma": SIGMAS, "--field-term": None}),
    "thermo": ({}, {"--kappa": FLOATS, "--h": FLOATS, "--T-grid": GRIDS, "--a": INTS,
                    "--partition-t-grid": GRIDS, "--sigma": SIGMAS, "--scan-point": POINTS,
                    "--scan": ["partition_density", "diagonal_density", "energy_density", "x"]}),
    "path": ({}, {"--a": INTS, "--T": FLOATS, "--x": POINTS, "--y": POINTS,
                  "--n-slices": INTS, "--order": INTS, "--sigma": SIGMAS}),
    "padi": ({}, {"--zones": RANGES, "--pmax": INTS, "--kernel-grid": GRIDS,
                  "--normalization-report": None}),
    "coulomb": ({}, {"--a": INTS, "--Q": FLOATS, "--basis-size": INTS, "--cross-zone": None,
                     "--max-zone": INTS}),
    "clifford": ({}, {"--r": RANGES}),
    "verify": ({}, {"--suite": ["", ",", "algebra", "nosuch", "padi,extensions", "zones"]}),
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    pool = {**optional, **COMMON}
    argv = [command] + [f"{flag}={draw(st.sampled_from(values))}"
                        for flag, values in required.items()]
    for flag in draw(st.lists(st.sampled_from(sorted(pool)), min_size=1, max_size=3,
                              unique=True)):
        argv.append(flag if pool[flag] is None else f"{flag}={draw(st.sampled_from(pool[flag]))}")
    return argv


@pytest.fixture(scope="module")
def states(tmp_path_factory):
    folder = tmp_path_factory.mktemp("states")
    for name, text in STATES.items():
        (folder / f"{name}.json").write_text(text)
    return folder


@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=invocations())
def test_generated_invocations_keep_the_exit_contract(states, argv):
    argv = [f"--state={states / arg.split('=', 1)[1]}.json" if arg.startswith("--state=")
            else arg for arg in argv]
    src = os.path.dirname(os.path.dirname(zonekit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        proc = subprocess.run([sys.executable, "-c", CHILD, *argv, "--outdir", out], env=env,
                              capture_output=True, text=True, timeout=60)
        left = os.listdir(out) if os.path.isdir(out) else []
    err = proc.stderr
    assert proc.returncode in (0, 1, 2), (proc.returncode, err)
    assert "Traceback" not in err and "MemoryError" not in err, err
    if proc.returncode == 0 or (argv[0] == "verify" and proc.returncode == 1):
        return  # a verify check failure is reported in its report, which is written
    if err.startswith("usage:"):  # argparse refused the flags before zonekit ran
        assert proc.returncode == 2, err
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert left == [], left
