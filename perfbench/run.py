"""Benchmark of the three fracevol CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fracevol source tree; the program is imported
from its ``src/`` directory.  A single closed-loop client runs one CLI
command at a time, each sample in a fresh interpreter, so every sample
pays the cold cost (import, empty Mittag-Leffler cache) a CLI user pays.
Samples repeat while the next one is expected to end within S seconds;
the first always runs, so a run of a workload longer than S (one steer
sweep) measures one sample.

Workloads (configs in perfbench/configs, copies of demos/configs):

    simulate-heat  fracevol simulate on demo_heat.ini
    verify-heat    fracevol verify on the trajectory simulate-heat writes,
                   produced untimed before sampling
    steer-sweep    fracevol steer on demo_steer.ini (1 target x 5 rho)

BENCHMARK.json lists verify-heat and steer-sweep only.  On a shared
2-vCPU host, wall times drift between throughput regimes lasting about
10 s, so a run's median only steadies as its window grows; two listed
workloads leave each run a 50 s window.  simulate-heat is the noisiest
(its cold Mittag-Leffler tables are also timed by verify-heat and its
solver layers by steer-sweep) and stays available for manual runs.

The seed picks the spelling of the config the program reads: section
and key order and exact decimal spellings of every float.  The parsed
problem, and so the work and the outputs, are the same for every seed.

Every sample's outputs are checked against perfbench/reference, captured
from the seed commit.  Byte-identical outputs pass; otherwise a sample
passes only inside the tolerances of the tree's fracevol/constants.py
(see check_* below).  A failed sample is counted, never dropped.

--trace 0 prints the end-to-end metrics (medians over samples):
    run_s              wall time of cli.main, config read to outputs written
    cpu_s              CPU time of the sample process (import included)
    setup_s            import of fracevol.cli in a fresh interpreter, median
                       over the samples, topped up with import-only
                       processes to SETUP_REPEATS measurements
    peak_rss_mb        peak resident memory of the sample process
    success_rate       1 - error_rate, share of samples that passed
    equation_residual  verify's independent-quadrature residual of the
                       heat trajectory (simulate-heat: of the trajectory
                       its samples wrote; verify-heat: as printed); on
                       steer-sweep the endpoint residual |u(a) - target|
                       at the smallest rho, largest over targets
--trace 1 alternates untraced and traced samples and prints the
per-layer metrics of layers.py (low medians over traced samples) plus
trace_overhead_s, the traced minus the untraced median run_s.  Traced
outputs must be byte-identical to untraced ones.

The last line of stdout is one JSON object:
{"correct": bool, "attempted": n, "failed": k, "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import random
import re
import runpy
import shutil
import statistics
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference"
SETUP_REPEATS = 7
# every run must end within 180 s; leave room for the result and cleanup
RUN_DEADLINE_S = 170.0

# workload -> (fracevol command, config in perfbench/configs)
WORKLOADS = {
    "simulate-heat": ("simulate", "demo_heat.ini"),
    "verify-heat": ("verify", "demo_heat.ini"),
    "steer-sweep": ("steer", "demo_steer.ini"),
}

END_TO_END_UNITS = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "share",
    "equation_residual": "1",
}


# -- inputs -----------------------------------------------------------------

_CONFIG_PARSER_ARGS = dict(interpolation=None, delimiters=("=",), comment_prefixes=("#",))


def _spellings(token: str) -> list[str]:
    """Decimal spellings with exactly the value of token, so the same float."""
    value = Decimal(token)
    forms = [token, format(value, "e"), format(value, "E"), format(value, "f")]
    if "." in forms[-1]:
        forms.append(forms[-1] + "0")
    return forms


def _respell(raw: str, rng: random.Random) -> str:
    out = []
    for token in re.split(r"(\s+|;)", raw.strip()):
        # integers keep their spelling: the int keys reject "512.0"
        if re.fullmatch(r"[-+]?[0-9.]+([eE][-+]?[0-9]+)?", token) and re.search(r"[.eE]", token):
            choice = rng.choice(_spellings(token))
            if float(choice) != float(token):
                raise ValueError(f"respelling {token!r} as {choice!r} changes its value")
            token = choice
        out.append(token)
    return "".join(out)


def seeded_config(name: str, seed: int) -> str:
    """The workload config, reordered and respelled from the seed."""
    parser = configparser.ConfigParser(**_CONFIG_PARSER_ARGS)
    parser.read(CONFIGS / name, encoding="ascii")
    rng = random.Random(seed)
    sections = parser.sections()
    rng.shuffle(sections)
    lines = [f"# {name}, spelled from seed {seed}"]
    for section in sections:
        keys = list(parser[section])
        rng.shuffle(keys)
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {_respell(parser[section][k], rng)}" for k in keys)
        lines.append("")
    return "\n".join(lines)


def input_properties(name: str) -> dict:
    parser = configparser.ConfigParser(**_CONFIG_PARSER_ARGS)
    parser.read(CONFIGS / name, encoding="ascii")
    exp = parser["experiment"] if parser.has_section("experiment") else {}
    targets = len(exp["targets"].split(";")) if "targets" in exp else 0
    rhos = len(exp["rho"].split()) if "rho" in exp else 0
    return {
        "alpha": float(parser["problem"]["alpha"]),
        "modes": int(parser["model"]["n_modes"]),
        "steps": int(parser["grid"]["n_steps"]),
        "cells": targets * rhos,
    }


# -- output checks ------------------------------------------------------------


def _numeric_rows(text: str) -> list[list[float]]:
    return [[float(x) for x in ln.split()] for ln in text.splitlines() if ln and ln[0] != "#"]


def check_trajectory(data: bytes, ref: bytes, tol: dict) -> str | None:
    """Same header and grid; states within SOLVE_TOL_DEFAULT (absolute)."""
    if data == ref:
        return None
    text, ref_text = data.decode("ascii"), ref.decode("ascii")
    header = [ln for ln in text.splitlines() if ln.startswith("#")]
    if header != [ln for ln in ref_text.splitlines() if ln.startswith("#")]:
        return "trajectory header differs"
    rows, ref_rows = _numeric_rows(text), _numeric_rows(ref_text)
    if len(rows) != len(ref_rows) or any(len(a) != len(b) for a, b in zip(rows, ref_rows)):
        return "trajectory shape differs"
    worst = max(abs(x - y) for a, b in zip(rows, ref_rows) for x, y in zip(a[1:], b[1:]))
    if any(a[0] != b[0] for a, b in zip(rows, ref_rows)):
        return "trajectory times differ"
    if worst > tol["SOLVE_TOL_DEFAULT"]:
        return f"trajectory off by {worst:.3g} > SOLVE_TOL_DEFAULT"
    return None


def check_report(data: bytes, ref: bytes, tol: dict) -> str | None:
    """Residuals within SOLVE_TOL_DEFAULT; control_sup as the reference to
    QUADRATURE_MATCH_TOL (relative).  Iteration counts are not checked."""
    if data == ref:
        return None
    fields = dict(ln.split(None, 1) for ln in data.decode("ascii").splitlines()[1:])
    ref_fields = dict(ln.split(None, 1) for ln in ref.decode("ascii").splitlines()[1:])
    for key in ("final_residual", "nonlocal_residual"):
        if not float(fields.get(key, "inf")) <= tol["SOLVE_TOL_DEFAULT"]:
            return f"report {key} above SOLVE_TOL_DEFAULT"
    sup, ref_sup = float(fields.get("control_sup", "nan")), float(ref_fields["control_sup"])
    if not abs(sup - ref_sup) <= tol["QUADRATURE_MATCH_TOL"] * abs(ref_sup):
        return "report control_sup differs"
    return None


def check_table(data: bytes, ref: bytes, tol: dict) -> str | None:
    """Same cells; endpoint_error and control_energy within STEER_TOL_DEFAULT
    (absolute).  The outer_iterations column is not checked."""
    if data == ref:
        return None
    rows, ref_rows = _numeric_rows(data.decode("ascii")), _numeric_rows(ref.decode("ascii"))
    if len(rows) != len(ref_rows):
        return "table row count differs"
    for row, ref_row in zip(rows, ref_rows):
        if len(row) != 5 or row[:2] != ref_row[:2]:
            return "table cells differ"
        for col in (2, 3):
            if not abs(row[col] - ref_row[col]) <= tol["STEER_TOL_DEFAULT"]:
                return f"table column {col} off by more than STEER_TOL_DEFAULT"
    return None


def steer_residual(data: bytes) -> float:
    """Largest endpoint error over targets at the smallest rho."""
    rows = _numeric_rows(data.decode("ascii"))
    smallest = min(r[1] for r in rows)
    return max(r[2] for r in rows if r[1] == smallest)


def verify_residual(stdout: str) -> tuple[float | None, bool]:
    lines = dict(ln.split(None, 1) for ln in stdout.splitlines() if " " in ln)
    residual = lines.get("equation_residual")
    return (float(residual) if residual else None), lines.get("result") == "pass"


# -- samples -----------------------------------------------------------------


class Runner:
    """Starts sample.py processes one at a time, inside the run's deadline."""

    def __init__(self, root: Path, work: Path, started: float):
        self.root = root
        self.work = work
        self.started = started
        self.n = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        constants = runpy.run_path(str(root / "src" / "fracevol" / "constants.py"))
        self.tolerances = {
            k: constants[k]
            for k in ("SOLVE_TOL_DEFAULT", "STEER_TOL_DEFAULT", "QUADRATURE_MATCH_TOL")
        }
        # heat.trajectory.txt -> "trajectory.txt", steer.table.txt -> "table.txt"
        self.reference = {p.name.split(".", 1)[1]: p.read_bytes() for p in REFERENCE.iterdir()}

    def child(self, own: list[str], command: list[str] = ()) -> tuple[dict | None, str, int]:
        """(result or None, stdout, exit code) of one sample.py process."""
        self.n += 1
        result_path = self.work / f"r{self.n}.json"
        out_path = self.work / f"r{self.n}.out"
        timeout = max(1.0, RUN_DEADLINE_S - (time.perf_counter() - self.started))
        argv = [sys.executable, str(HERE / "sample.py"), "--result", str(result_path), *own]
        if command:
            argv += ["--", *command]
        with open(out_path, "wb") as out, open(self.work / f"r{self.n}.err", "wb") as err:
            try:
                code = subprocess.run(
                    argv, cwd=self.root, env=self.env, stdout=out, stderr=err, timeout=timeout
                ).returncode
            except subprocess.TimeoutExpired:
                code = -1
        result = json.loads(result_path.read_text()) if result_path.exists() else None
        return result, out_path.read_text(errors="replace"), code

    def sample(self, workload: str, config: Path, traj: Path, traced: bool) -> dict:
        """One timed sample: its measurements, outputs and failure reason."""
        prefix = self.work / f"s{self.n + 1}"
        command = [WORKLOADS[workload][0], "--config", str(config)]
        command += [str(traj)] if workload == "verify-heat" else ["--out", str(prefix)]
        result, stdout, code = self.child(["--trace"] if traced else [], command)
        sample = {"traced": traced, "result": result, "error": None, "outputs": {}, "prefix": prefix}
        if result is None or code != 0 or result.get("exit_code") != 0:
            sample["error"] = f"exit code {code}"
            return sample
        if workload == "verify-heat":
            residual, passed = verify_residual(stdout)
            sample["outputs"]["stdout"] = stdout
            sample["residual"] = residual
            if not passed or residual is None:
                sample["error"] = "verify did not print result pass"
            return sample
        checks = (
            [("table.txt", check_table)]
            if workload == "steer-sweep"
            else [("trajectory.txt", check_trajectory), ("report.txt", check_report)]
        )
        for suffix, check in checks:
            path = Path(f"{prefix}.{suffix}")
            if not path.exists():
                sample["error"] = f"missing output {suffix}"
                return sample
            data = path.read_bytes()
            sample["outputs"][suffix] = data
            sample["error"] = sample["error"] or check(data, self.reference[suffix], self.tolerances)
        if workload == "steer-sweep":
            sample["residual"] = steer_residual(sample["outputs"]["table.txt"])
        return sample


def _median(values: list, median=statistics.median) -> float | None:
    """Median, or None if any value is missing."""
    if not values or any(v is None for v in values):
        return None
    return median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "fracevol" / "cli.py").is_file():
        print(f"error: no fracevol source tree at {root / 'src'}", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(args, root, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()


def _run(args: argparse.Namespace, root: Path, work: Path, started: float) -> int:
    runner = Runner(root, work, started)
    # untimed warm-up: byte-compiles the tree and proves it is the one imported
    warm, _, _ = runner.child(["--import-only"])
    if warm is None or not warm["module"].startswith(str(root / "src")):
        print(f"error: fracevol.cli does not import from {root / 'src'}", file=sys.stderr)
        return 1
    facts = {"nproc": os.cpu_count(), **warm["versions"]}
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        facts[key] = os.environ.get(key, "unset")
    config_name = WORKLOADS[args.workload][1]
    props = input_properties(config_name)
    print("machine", " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload {args.workload} seed {args.seed}", " ".join(f"{k}={v}" for k, v in props.items()))

    config = work / "config.ini"
    config.write_text(seeded_config(config_name, args.seed), encoding="ascii")
    traj = work / "input.trajectory.txt"
    samples: list[dict] = []
    if args.workload == "verify-heat":
        prep = runner.sample("simulate-heat", config, traj, False)
        if prep["error"] is None:
            Path(f"{prep['prefix']}.trajectory.txt").replace(traj)
        else:
            prep["error"] = "input trajectory: " + prep["error"]
            samples.append(prep)
    if not samples:
        samples = _sample_loop(runner, args, config, traj)

    if args.trace:
        metrics = _layer_metrics(samples)
    else:
        # every untraced sample imported fracevol.cli once; top up with
        # import-only processes when the samples were too few
        setups = [s["result"]["setup_s"] for s in samples if s["result"]]
        while len(setups) < SETUP_REPEATS:
            result, _, _ = runner.child(["--import-only"])
            setups.append(result["setup_s"] if result else None)
        metrics = _end_to_end_metrics(runner, args.workload, config, samples, setups)
    for i, s in enumerate(samples, 1):
        r = s["result"] or {}
        print(
            f"sample {i} {'traced' if s['traced'] else 'untraced'}",
            " ".join(f"{k}={r.get(k)}" for k in ("run_s", "cpu_s", "peak_rss_mb")),
            "ok" if s["error"] is None else "FAILED " + s["error"],
        )
    missing = sorted({m for s in samples for m in (s["result"] or {}).get("missing", ())})
    if missing:
        print("missing entry points (their metrics are null):", ", ".join(missing))
    failed = sum(s["error"] is not None for s in samples)
    print(f"error_rate {failed / len(samples)} share ({failed} of {len(samples)} samples failed)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    summary = {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


def _sample_loop(runner: Runner, args: argparse.Namespace, config: Path, traj: Path) -> list[dict]:
    """Samples while the next one is expected to end within --seconds (at
    least one); --trace 1 alternates untraced and traced samples and takes
    at least one of each."""
    samples: list[dict] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = bool(args.trace) and len(samples) % 2 == 1
        samples.append(runner.sample(args.workload, config, traj, traced))
        now = time.perf_counter()
        last = now - t0
        if now - runner.started + last > RUN_DEADLINE_S:
            return samples  # another sample would overrun the deadline
        if now - start + last > args.seconds and (not args.trace or len(samples) >= 2):
            return samples


def _end_to_end_metrics(
    runner: Runner, workload: str, config: Path, samples: list[dict], setups: list
) -> dict:
    timed = [s for s in samples if s["result"] and "run_s" in s["result"]]
    passed = [s for s in samples if s["error"] is None]
    if workload == "simulate-heat" and passed:
        # verify the trajectory the last passing sample wrote, untimed
        last = passed[-1]
        command = ["verify", "--config", str(config), f"{last['prefix']}.trajectory.txt"]
        _, stdout, code = runner.child([], command)
        residual, ok = verify_residual(stdout)
        last["residual"] = residual
        if code != 0 or not ok:
            last["error"] = "written trajectory fails verify"
    passed = [s for s in samples if s["error"] is None]
    values = {
        "run_s": _median([s["result"]["run_s"] for s in timed]),
        "cpu_s": _median([s["result"]["cpu_s"] for s in timed]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([s["result"]["peak_rss_mb"] for s in timed]),
        "success_rate": len(passed) / len(samples),
        "equation_residual": _median([s["residual"] for s in passed if "residual" in s]),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _layer_metrics(samples: list[dict]) -> dict:
    import layers

    plain = [s for s in samples if not s["traced"] and s["error"] is None]
    for s in samples:
        if s["traced"] and s["error"] is None and plain and s["outputs"] != plain[0]["outputs"]:
            s["error"] = "traced outputs differ from untraced ones"
    traced = [s for s in samples if s["traced"] and s["result"] and "layers" in s["result"]]
    # the low median keeps counts whole
    metrics = {
        name: {
            "value": _median([s["result"]["layers"][name] for s in traced], statistics.median_low),
            "unit": unit,
        }
        for name, unit in layers.LAYER_METRICS
    }
    traced_run = _median([s["result"]["run_s"] for s in traced])
    plain_run = _median([s["result"]["run_s"] for s in samples if not s["traced"] and s["result"]])
    overhead = None if traced_run is None or plain_run is None else traced_run - plain_run
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
