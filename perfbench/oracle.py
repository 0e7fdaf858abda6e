"""Output oracle: compare one workload's outputs with the recorded reference.

Data files (CSV) must be byte-identical, checked by sha256.  The verify report
must match row for row in every field except `seconds`, which is a timing;
`measured` is compared up to rounding (see `same_measure`).  The exit code
must match too: verify exits 1 by design, for the documented
thermo/df_energy_rate_low_T discrepancy.
"""

from __future__ import annotations

import hashlib
import json
import os

REL_TOL = 1e-12
ABS_TOL = 1e-13


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def observe(outdir: str, output: str, exit_code: int) -> dict:
    """What a finished run produced: its exit code and a digest of its output."""
    path = os.path.join(outdir, output)
    seen: dict = {"exit_code": exit_code}
    if not os.path.exists(path):
        return seen
    if output.endswith(".json"):
        with open(path) as fh:
            seen["verify"] = [{k: v for k, v in row.items() if k != "seconds"}
                              for row in json.load(fh)]
    else:
        seen["sha256"] = sha256_file(path)
        seen["bytes"] = os.path.getsize(path)
    return seen


def same_measure(a, b) -> bool:
    """Equal up to rounding: 1e-12 relative, with a 1e-13 floor for residuals
    that sit at machine precision.  Non-numbers ('inf', 'nan') must be equal."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL
    return a == b


def mismatch(seen: dict, expected: dict) -> str | None:
    """Why `seen` differs from `expected`, or None when it matches."""
    if seen["exit_code"] != expected["exit_code"]:
        return f"exit code {seen['exit_code']}, expected {expected['exit_code']}"
    if "sha256" in expected:
        if seen.get("sha256") != expected["sha256"]:
            return (f"output sha256 {seen.get('sha256')} ({seen.get('bytes')} B), "
                    f"expected {expected['sha256']} ({expected['bytes']} B)")
        return None
    rows, ref = seen.get("verify"), expected["verify"]
    if rows is None:
        return "verify report missing"
    if len(rows) != len(ref):
        return f"verify report has {len(rows)} checks, expected {len(ref)}"
    for row, want in zip(rows, ref):
        label = f"{want['suite']}/{want['check_name']}"
        if row.keys() != want.keys():
            return f"{label}: fields {sorted(row)}, expected {sorted(want)}"
        for key, value in want.items():
            ok = same_measure(row[key], value) if key == "measured" else row[key] == value
            if not ok:
                return f"{label}: {key}={row[key]!r}, expected {value!r}"
    return None
