"""One zonekit process, spawned by run.py.

    python3 perfbench/child.py MODE RESULT_JSON [zonekit arguments...]

MODE is one of
  run    import zonekit.cli and call main(), as the `zonekit` script does
  trace  the same, with every public zonekit function wrapped in a span
  probe  import zonekit.cli and stop where main() would be entered
  info   report library versions and the BLAS build for the provenance record

RESULT_JSON receives the CLOCK_MONOTONIC time at which main() was entered
(the parent took its own reading just before the spawn), plus the span totals
in trace mode.  The process exits with main()'s return code.
"""

import json
import sys
import time


def _blas_info() -> dict:
    """Name, build string and default thread count of the BLAS numpy loaded."""
    import ctypes

    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "config": None, "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                info["threads"] = threads()
                info["config"] = config().decode()
                return info
    return info


def main() -> int:
    mode, result_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from zonekit import cli

    result = {}
    if mode == "info":
        import platform

        import numpy
        import scipy
        import zonekit
        result = {"zonekit": zonekit.__version__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": _blas_info()}
    elif mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
    result["t_main"] = time.monotonic()
    rc = 0
    if mode in ("run", "trace"):
        try:
            rc = cli.main(argv)
        finally:
            if mode == "trace":
                installed.restore()
                result["stats"] = {n: s.to_dict() for n, s in tracer.stats.items()}
                result["basis_cache"] = tracing.basis_cache_info()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
