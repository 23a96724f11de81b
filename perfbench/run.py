"""The aecodes benchmark: one workload, one seed, checked and measured.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source tree of aecodes; the program is imported from
its ``src`` directory, so nothing needs installing.  Each run starts the
workload in a fresh single-threaded interpreter (``worker.py``) with
PYTHONHASHSEED fixed, waits for it, checks every output it recorded with
``checks.py``, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; set-up is timed in
SETUP_SAMPLES fresh interpreters and reported as their median.  With
``--trace 1`` the worker wraps the program's layer boundaries and the
metrics are per-layer figures per operation.  A summary for people goes to
stderr, and the result line is also kept in ``perfbench/out/``.

Times are reported at a fixed machine pace.  On a shared machine the pace of
one core drifts by tens of percent within a minute, and a run's raw times
follow it.  The worker therefore times a fixed reference kernel, which does
not touch the program, right after set-up and every worker.REFERENCE_EVERY s
between operations; each time is scaled by REFERENCE_SECONDS over the
reference time measured around it.  The program's own cost is unchanged by
the scaling, the machine's drift mostly cancels.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
TIME_LIMIT = 170.0  # seconds for the whole run, children included
REFERENCE_SECONDS = 0.0095  # reference-kernel time on the 2-core machine the benchmark was built on

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "combinatorics.binom_ms": "ms",
    "combinatorics.binom_calls": "count",
    "klverify.correct_self_ms": "ms",
    "klverify.detect_self_ms": "ms",
    "klverify.conditions_self_ms": "ms",
    "angular.cg_ms": "ms",
    "angular.cg_calls": "count",
    "exactnum.squarefree_ms": "ms",
    "exactnum.squarefree_calls": "count",
    "exactnum.factorize_calls": "count",
    "errors.build_self_ms": "ms",
    "errors.cache_hit_ratio": "ratio",
    "cli.main_self_ms": "ms",
    "codes.construct_ms": "ms",
    "search.solve_self_ms": "ms",
    "search.enumerate_self_ms": "ms",
    "search.solves": "count",
    "search.feasible_ratio": "ratio",
    "covariance.norm_ms": "ms",
    "covariance.residual_self_ms": "ms",
    "covariance.check_self_ms": "ms",
    "angular.wigner_D_ms": "ms",
    "covariance.wigner_D_calls": "count",
}


class RunError(Exception):
    """The run cannot produce a result."""


def start_worker(args, workdir: Path, deadline: float, setup_only: bool) -> tuple[float, str]:
    """Run worker.py to its end; returns (monotonic start time, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--workdir={workdir}",
    ] + (["--setup-only"] if setup_only else [])
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting the worker")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker ran past the {TIME_LIMIT:.0f} s limit") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited with status {proc.returncode}")
    return started, proc.stdout


def check_outputs(workload: str, plan: list, workdir: Path) -> tuple[set[int], list[str]]:
    """Indices of operations whose output is wrong, and every problem found."""
    wrong: set[int] = set()
    problems: list[str] = []
    with open(workdir / "records.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    for i, (op, rec) in enumerate(zip(plan, records)):
        if rec is None:  # the operation raised; counted as failed already
            continue
        if workload == "sweep":
            found = checks.check_sweep(op, rec)
        elif workload == "spin-scale":
            found = check_spin_op(op, rec)
        elif workload == "search":
            found = checks.check_search(op, rec["results"])
        else:
            found = checks.check_covariance(op, rec)
        if found:
            wrong.add(i)
            problems += [f"op {i}: {p}" for p in found]
    if workload == "covariance":
        problems += check_covariance_laws(plan)
    return wrong, problems


def check_spin_op(op: dict, rec: dict) -> list[str]:
    found = []
    for name in ("errors", "verify"):
        if rec[f"{name}_status"] != 0:
            found.append(f"aecodes {name} exited with status {rec[f'{name}_status']}")
    errors = json.loads(Path(rec["errors_file"]).read_text(encoding="utf-8"))
    found += checks.check_errors_report(op["two_j"], op["t"], errors)
    verify = json.loads(Path(rec["verify_file"]).read_text(encoding="utf-8"))
    found += checks.check_verify_report(verify, rec["code_file"], checks.file_sha256(rec["code_file"]))
    return found


def check_covariance_laws(plan: list) -> list[str]:
    """Group laws of D at the largest spin in the list; unitary logical actions."""
    sys.path.insert(0, str(SRC))
    from aecodes import codes, covariance

    bits = workloads.COVARIANCE_BITS
    groups = {
        "BD_8": covariance.binary_dihedral_group(workloads.BD_ORDER_PARAM, bits),
        "2O": covariance.binary_octahedral_group(bits),
        "2I": covariance.binary_icosahedral_group(bits),
    }
    fixtures = codes.fixtures()
    problems = checks.check_group_laws(groups, max(op["two_j"] for op in plan), bits)
    problems += checks.check_logical_actions(
        [("J11half/BD_8", fixtures["J11half"], groups["BD_8"]), ("J7half/2I", fixtures["J7half"], groups["2I"])],
        bits,
    )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one aecodes benchmark workload.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "aecodes" / "__init__.py").is_file():
        print(f"error: no aecodes sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    plan = workloads.plan(args.workload, args.seed, args.seconds)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []  # (raw seconds, reference seconds right after set-up)
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            started, stdout = start_worker(args, workdir, deadline, setup_only=True)
            probe = json.loads(stdout.splitlines()[-1])
            setups.append((probe["setup_end"] - started, probe["reference"]))
        started, _ = start_worker(args, workdir, deadline, setup_only=False)
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        setups.append((result["setup_end"] - started, result["references"][0]))
        wrong, problems = check_outputs(args.workload, plan, workdir)
        if args.trace:
            shutil.copy(workdir / "trace.csv.gz", OUT / f"{args.workload}-seed{args.seed}.trace.csv.gz")
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    refs, segments = result["references"], result["segments"]
    raw = result["durations"]
    durations = [
        d * REFERENCE_SECONDS * 2 / (refs[k] + refs[k + 1]) for d, k in zip(raw, segments)
    ]
    raised = set(result["raised"])
    done = [d for i, d in enumerate(durations) if i not in raised]
    failed = len(raised | wrong)
    if args.trace:
        pace = REFERENCE_SECONDS / statistics.median(refs)
        layers = {k: v * pace if PER_LAYER_UNITS[k] == "ms" else v for k, v in result["layers"].items()}
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        values = {
            "ops_per_s": len(done) / sum(durations),
            "latency_p50_ms": statistics.median(done) * 1000 if done else 0.0,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "setup_s": statistics.median(s * REFERENCE_SECONDS / ref for s, ref in setups),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)
    wall, cpu = sum(raw), sum(result["cpu"])
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(plan),
        "raised": len(raised),
        "wrong": len(wrong),
        "problems": len(problems),
        "wall_s": round(wall, 4),
        "cpu_s": round(cpu, 4),
        "scaled_s": round(sum(durations), 4),
        "p90_scaled_ms": round(statistics.quantiles(durations, n=10)[-1] * 1000, 3) if len(durations) > 1 else None,
        "reference_ms": [round(min(refs) * 1000, 3), round(statistics.median(refs) * 1000, 3), round(max(refs) * 1000, 3)],
        "setup_raw_s": [round(s, 4) for s, _ in setups],
    }
    if args.trace:
        summary["spans"] = result["spans"]

    print(json.dumps(summary), file=sys.stderr)
    line = json.dumps(
        {"correct": not problems, "attempted": len(plan), "failed": failed, "metrics": metrics}
    )
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
