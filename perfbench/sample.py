"""One benchmark sample in a fresh interpreter.

    python3 sample.py --result R.json [--trace] -- <fracevol arguments>
    python3 sample.py --result R.json --import-only

Times the import of fracevol.cli (set-up) and cli.main (the run), and
writes both with the process's CPU time, peak resident memory and exit
code to R.json.  With --trace the layer wrappers of layers.py are
installed between the two and their metrics are added.  The process
exits with the command's own exit code.
"""

import time

_T0 = time.perf_counter()
from fracevol import cli  # noqa: E402

_SETUP_S = time.perf_counter() - _T0

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def main(argv: list[str]) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    own, command = argv[:split], argv[split + 1:]
    result_path = own[own.index("--result") + 1]
    result: dict = {"setup_s": _SETUP_S, "module": cli.__file__}
    code = 0
    if "--import-only" not in own:
        rec = None
        if "--trace" in own:
            import layers  # the script's own directory is on sys.path

            rec = layers.install(layers.Recorder())
        t0 = time.perf_counter()
        code = cli.main(command)
        result["run_s"] = time.perf_counter() - t0
        if rec is not None:
            result["layers"] = layers.layer_metrics(rec)
            result["missing"] = rec.missing
    result["exit_code"] = code
    result["versions"] = {"python": platform.python_version()}
    for lib in ("numpy", "scipy"):
        result["versions"][lib] = getattr(sys.modules.get(lib), "__version__", None)
    result["cpu_s"] = _cpu_s()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
