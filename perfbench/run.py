#!/usr/bin/env python3
"""End-to-end benchmark of the zonekit CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference

Runs one fixed CLI workload in a closed loop with one client: each run is a
fresh `zonekit` process (import cost, cold zone-basis cache), started only
after the previous one has exited, for about S seconds.  Every output is
checked against perfbench/reference.json and deleted.  The last line of
stdout is one JSON object with the metrics; the lines before it give the
provenance and a readable table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import oracle
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_PROBES = 4


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    output: str
    need_mb: int = 0  # MemAvailable required before each run; 0 = no guard


WORKLOADS = {
    # the headline command: quadrature kernels, cylinder chains, all 50 checks
    "verify": Workload(("verify",), "verify_report.json"),
    # the README example: 2.83M CSV rows, dominated by KernelGrid.write_csv
    "kernel_readme": Workload(("kernel", "--sigma", "i", "--a", "1", "--t", "0.25",
                               "--grid=-2:2:0.1"), "kernel.csv"),
    # order-64 sliced Feynman-Kac: dense 4096 x 4096 step matrices, ~955 MB peak
    "path_sliced": Workload(("path", "--order", "64", "--n-slices", "6"), "path.csv",
                            need_mb=1400),
    # exact algebra: Gram-Schmidt zone bases at k=4, inner_product bound.  Not in
    # BENCHMARK.json: its run-to-run spread on a shared host exceeds every bound
    "zones_k4": Workload(("zones", "--k", "4", "--zones", "0..6", "--max-degree", "16"),
                         "zones.csv"),
}


@dataclass
class Sample:
    wall_s: float
    setup_s: float | None
    rss_mb: float
    cpu_s: float
    exit_code: int
    child: dict = field(default_factory=dict)
    error: str | None = None


def spawn(mode: str, argv, workdir: str) -> Sample:
    """Run child.py once and measure it from spawn to exit."""
    result_path = os.path.join(workdir, "child.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, mode, result_path, *argv],
                            cwd=workdir, env=env, stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child running
        proc.kill()
        proc.wait()
        raise
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = {}
    if os.path.exists(result_path):
        with open(result_path) as fh:
            child = json.load(fh)
        os.remove(result_path)
    return Sample(wall_s=wall,
                  setup_s=child["t_main"] - t0 if "t_main" in child else None,
                  rss_mb=usage.ru_maxrss / 1024.0,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  exit_code=proc.returncode, child=child)


def mem_available_mb() -> float:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("MemAvailable missing from /proc/meminfo")


def run_once(wl: Workload, mode: str, expected: dict | None, work: str) -> Sample | None:
    """One workload run; returns None when the memory guard refuses it."""
    if wl.need_mb and (avail := mem_available_mb()) < wl.need_mb:
        print(f"memory guard: MemAvailable {avail:.0f} MB < {wl.need_mb} MB needed; "
              "run recorded as failed", file=sys.stderr)
        return None
    outdir = tempfile.mkdtemp(dir=work)
    try:
        s = spawn(mode, [*wl.argv, "--outdir", outdir], outdir)
        seen = oracle.observe(outdir, wl.output, s.exit_code)
    finally:
        shutil.rmtree(outdir)  # kernel_readme leaves 290 MB per run
    s.child["seen"] = seen
    if expected is not None:
        s.error = oracle.mismatch(seen, expected)
        if s.error:
            print(f"output check failed: {s.error}", file=sys.stderr)
    return s


# ---- provenance --------------------------------------------------------------------


def _git_commit() -> str | None:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head_path):
        return None
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.exists(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def _src_sha256() -> str:
    """Digest of the zonekit sources: identifies the code in checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "zonekit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            h.update(oracle.sha256_file(os.path.join(pkg, name)).encode())
    return h.hexdigest()


def provenance(info: dict, seed: int) -> dict:
    with open("/proc/meminfo") as fh:
        mem_total = next(int(l.split()[1]) for l in fh if l.startswith("MemTotal:"))
    return {**{k: v for k, v in info.items() if k != "t_main"},
            "seed": seed, "git_commit": _git_commit(), "src_sha256": _src_sha256(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "mem_total_mb": round(mem_total / 1024),
            "thread_env": {k: v for k, v in os.environ.items()
                           if k.endswith("_NUM_THREADS")}}


# ---- metrics -----------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(runs: list[Sample], setups: list[Sample], attempted: int, failed: int):
    return {
        "wall_s": (min(s.wall_s for s in runs), "s"),
        "setup_s": (_median([s.setup_s for s in setups]), "s"),
        "peak_rss_mb": (_median([s.rss_mb for s in runs]), "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(runs: list[Sample], traced: list[Sample]):
    layers = [tracing.layer_metrics(s.child["stats"], s.child.get("basis_cache"))
              for s in traced]
    out = {name: (_median([m[name][0] for m in layers]), unit)
           for name, (_, unit) in layers[0].items()}
    untraced_wall = min(s.wall_s for s in runs)
    traced_wall = min(s.wall_s for s in traced)
    out["cli.cpu_s"] = (_median([s.cpu_s for s in runs]), "s")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.unaccounted_s"] = (_median(
        [s.wall_s - s.setup_s - tracing.total_self_s(s.child["stats"]) for s in traced]), "s")
    return out


# ---- entry points --------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool, work: str) -> int:
    wl = WORKLOADS[name]
    with open(REFERENCE) as fh:
        expected = json.load(fh)["workloads"][name]
    t_start = time.monotonic()
    info = spawn("info", [], work)  # also warms the page cache and bytecode cache
    if info.exit_code != 0:
        print("zonekit failed to import; see stderr", file=sys.stderr)
        return 1
    print("provenance " + json.dumps(provenance(info.child, seed), sort_keys=True))
    probes = [spawn("probe", [], work) for _ in range(SETUP_PROBES)]
    modes = ("run", "trace") if trace else ("run",)
    by_mode: dict[str, list[Sample]] = {m: [] for m in modes}
    attempted = failed = 0
    durations = []
    while True:
        t_iter = time.monotonic()
        refused = False
        for mode in modes:
            attempted += 1
            s = run_once(wl, mode, expected, work)
            if s is None or s.error:
                failed += 1
                refused = s is None
            if s is not None:
                by_mode[mode].append(s)
        durations.append(time.monotonic() - t_iter)
        if refused or time.monotonic() - t_start + _median(durations) > seconds:
            break
    ok = {m: [s for s in samples if not s.error] or samples for m, samples in by_mode.items()}
    if not all(ok.values()):
        print(f"{name}: no run completed ({attempted} attempted, {failed} failed)",
              file=sys.stderr)
        return 1
    setups = [s for s in probes + ok["run"] if s.setup_s is not None]
    metrics = per_layer(ok["run"], ok["trace"]) if trace else \
        end_to_end(ok["run"], setups, attempted, failed)
    counts = {m: len(samples) for m, samples in by_mode.items()}
    print(f"workload {name}: {counts} runs, {len(setups)} set-up samples, "
          f"{attempted} attempted, {failed} failed, fail_rate {failed / attempted:.4g}")
    for mode, samples in by_mode.items():
        print(f"  {mode} wall_s: " + " ".join(f"{x.wall_s:.3f}" for x in samples))
    for key, (value, unit) in metrics.items():
        print(f"  {key:<52s} {value:>16.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def record_reference(work: str) -> int:
    """Run every workload once and store its exit code and output digest."""
    workloads = {}
    for name, wl in WORKLOADS.items():
        s = run_once(wl, "run", None, work)
        workloads[name] = s.child["seen"]
        print(f"{name}: exit {s.exit_code}, {s.wall_s:.2f} s", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump({"src_sha256": _src_sha256(), "workloads": workloads}, fh, indent=1)
        fh.write("\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded only: every workload is a fixed command line")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    # turn SIGTERM into SystemExit, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "zonekit", "cli.py")):
        print(f"zonekit sources not found under {SRC}", file=sys.stderr)
        return 2
    if not args.record_reference and args.workload is None:
        ap.error("--workload is required")
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.record_reference:
            return record_reference(work)
        return measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    sys.exit(main())
