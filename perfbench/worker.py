"""One workload in a fresh interpreter: set-up, then its fixed list, timed.

run.py starts this file; it is not meant to be run by hand.  It imports
aecodes from the PYTHONPATH run.py sets, performs the workload's set-up,
then times each operation of the list in turn, one caller waiting for each
result.  Whatever an operation returns is recorded, outside the timed
window, to ``records.jsonl`` in the work directory, where run.py checks it
(``null`` for an operation that raised).  Timings, reference-kernel samples
(see run.py) and peak memory go to ``result.json``.  With ``--setup-only``
the process stops after set-up and prints the monotonic time at which set-up
ended and one reference sample.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads


REFERENCE_EVERY = 0.25  # seconds of operations between two reference samples
_MERSENNE = (1 << 127) - 1


def reference_kernel() -> int:
    """Fixed pure-Python integer work that does not touch the program.

    Ints and strings only, so the kernel allocates no object the cyclic
    garbage collector tracks and its time does not grow with the program's
    heap.
    """
    x, acc = 1, 0
    for i in range(1, 8000):
        x = x * (2 * i + 1) % _MERSENNE
        acc += math.gcd(x, i * 2654435761) + len(str(i))
    return acc


def reference_sample() -> float:
    """Median seconds of three reference-kernel runs: the machine's current pace."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def vector_rows(vec) -> list[list[int]]:
    """Nonzero coefficients as [index, sign, radicand numerator, radicand denominator]."""
    return [
        [j, c.sign, c.radicand.numerator, c.radicand.denominator]
        for j, c in enumerate(vec)
        if not c.is_zero()
    ]


class Sweep:
    """Build a family instance (or a negative control) and decide it four ways."""

    def __init__(self, plan, workdir):
        self.plan = plan

    def setup(self):
        from aecodes import codes, errors, exactnum, klverify

        self.codes, self.errors, self.exactnum, self.klverify = codes, errors, exactnum, klverify
        pairs = {(2 * g * m + delta + 1, t) for g, m, delta, _, t in (op["params"] for op in self.plan)}
        for n, t in sorted(pairs):
            errors.build_ae_error_set(n, t)

    def _control(self, code, vec_idx, position):
        """Scale one coefficient by 1001/1000 and renormalize, all exactly."""
        vec = list(code.basis[vec_idx])
        support = code.support(vec_idx)
        j = support[position % len(support)]
        vec[j] = vec[j].scaled(Fraction(1001, 1000))
        rescale = self.exactnum.SqrtRational.sqrt(1 / sum((c.radicand for c in vec), Fraction(0)))
        basis = list(code.basis)
        basis[vec_idx] = tuple(c * rescale for c in vec)
        return self.codes.CodeBasis(code.kind, code.two_J, tuple(basis), code.label + "+control")

    def call(self, i, op):
        g, m, delta, eps, t = op["params"]
        code = self.codes.construct_ae_gmde(self.codes.GmdeParams(g, m, delta, eps))
        if op["perturb"] is not None:
            code = self._control(code, *op["perturb"])
        eset = self.errors.build_ae_error_set(code.two_J, t)
        kl = self.klverify
        return (
            code,
            kl.check_conditions(code, t, 2 * t).all_pass,
            kl.check_kl_correct(code, eset).passed,
            kl.check_conditions(code, t, t).all_pass,
            kl.check_kl_detect(code, eset).passed,
        )

    def record(self, i, op, out):
        code, cond_2t, correct, cond_t, detect = out
        return {
            "two_j": code.two_J,
            "basis": [vector_rows(v) for v in code.basis],
            "cond_2t": cond_2t,
            "correct": correct,
            "cond_t": cond_t,
            "detect": detect,
        }


class SpinScale:
    """`aecodes errors` then `aecodes verify --mode correct` at a new spin, in-process."""

    def __init__(self, plan, workdir):
        self.plan = plan
        self.workdir = workdir
        self.paths: list[str] = []

    def setup(self):
        from aecodes import cli, codes

        self.cli = cli
        for i, op in enumerate(self.plan):
            path = self.workdir / f"code-{i:03d}.json"
            codes.construct_ae_gmde(codes.GmdeParams(*op["family"])).save(path)
            self.paths.append(str(path))

    def _main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = self.cli.main(argv)
        return status, out.getvalue()

    def call(self, i, op):
        two_j, t = str(op["two_j"]), str(op["t"])
        errors = self._main(["errors", "--two-j", two_j, "--t", t])
        verify = self._main(["verify", self.paths[i], "--t", t, "--mode", "correct"])
        return errors, verify

    def record(self, i, op, out):
        rec = {"code_file": self.paths[i]}
        for name, (status, text) in zip(("errors", "verify"), out):
            path = self.workdir / f"op-{i:03d}-{name}.json"
            path.write_text(text, encoding="utf-8")
            rec[f"{name}_status"] = status
            rec[f"{name}_file"] = str(path)
        return rec


class Search:
    """One `enumerate_and_search(n, t, max_size)` call."""

    def __init__(self, plan, workdir):
        self.plan = plan
        self.results = 0

    def setup(self):
        from aecodes import exactnum, search

        self.search = search
        exactnum.SqrtRational.sqrt(2)  # builds the prime table factorization uses

    def call(self, i, op):
        return self.search.enumerate_and_search(op["n"], op["t"], op["max_size"])

    def record(self, i, op, out):
        self.results += len(out)
        return {
            "results": [
                {**r.to_dict(), "basis": [vector_rows(v) for v in r.code.basis]} for r in out
            ]
        }


class Covariance:
    """One `check_covariance` call at 200 bits."""

    def __init__(self, plan, workdir):
        self.plan = plan

    def setup(self):
        from aecodes import codes, covariance, exactnum

        self.covariance = covariance
        bits = workloads.COVARIANCE_BITS
        self.groups = {
            "bd": covariance.binary_dihedral_group(workloads.BD_ORDER_PARAM, bits),
            "2o": covariance.binary_octahedral_group(bits),
            "2i": covariance.binary_icosahedral_group(bits),
        }
        fixtures = codes.fixtures()
        sqrt, exact = exactnum.SqrtRational.sqrt, exactnum.SqrtRational.from_rational
        self.codes = []
        for i, op in enumerate(self.plan):
            if op["code"] != "random":
                self.codes.append(fixtures[op["code"]])
                continue
            basis = []
            for vec in op["vectors"]:
                scale = sqrt(1 / sum(x * x for x in vec))
                basis.append(tuple(exact(x) * scale for x in vec))
            self.codes.append(
                codes.CodeBasis(codes.CodeKind.AE, op["two_j"], tuple(basis), f"random-{i}")
            )

    def call(self, i, op):
        return self.covariance.check_covariance(
            self.codes[i],
            self.groups[op["group"]],
            workloads.COVARIANCE_TOLERANCE,
            workloads.COVARIANCE_BITS,
        )

    def record(self, i, op, out):
        import mpmath

        return {"passed": out.passed, "max_residual": mpmath.nstr(out.max_residual, 12)}


WORKLOAD_CLASSES = {
    "sweep": Sweep,
    "spin-scale": SpinScale,
    "search": Search,
    "covariance": Covariance,
}

# Per-layer metrics: (metric, span name).  Times are self milliseconds.
LAYER_TIMES = (
    ("combinatorics.binom_ms", "combinatorics.binom"),
    ("klverify.correct_self_ms", "klverify.correct"),
    ("klverify.detect_self_ms", "klverify.detect"),
    ("klverify.conditions_self_ms", "klverify.conditions"),
    ("angular.cg_ms", "angular.cg"),
    ("exactnum.squarefree_ms", "exactnum.squarefree"),
    ("errors.build_self_ms", "errors.build"),
    ("cli.main_self_ms", "cli.main"),
    ("codes.construct_ms", "codes.construct"),
    ("search.solve_self_ms", "search.solve"),
    ("search.enumerate_self_ms", "search.enumerate"),
    ("covariance.norm_ms", "covariance.norm"),
    ("covariance.residual_self_ms", "covariance.residual"),
    ("covariance.check_self_ms", "covariance.check"),
    ("angular.wigner_D_ms", "angular.wigner_D"),
)
LAYER_CALLS = (
    ("combinatorics.binom_calls", "combinatorics.binom"),
    ("angular.cg_calls", "angular.cg"),
    ("exactnum.squarefree_calls", "exactnum.squarefree"),
    ("search.solves", "search.solve"),
    ("covariance.wigner_D_calls", "angular.wigner_D"),
)


def layer_metrics(tracer, workload, ops: int) -> dict[str, float]:
    """Per-operation figures over the whole traced process, set-up included."""
    totals = tracer.totals()
    out = {}
    for metric, span in LAYER_TIMES:
        out[metric] = totals.get(span, (0.0, 0))[0] * 1000 / ops
    for metric, span in LAYER_CALLS:
        out[metric] = totals.get(span, (0.0, 0))[1] / ops
    out["exactnum.factorize_calls"] = tracer.counts.get("exactnum.factorize", 0) / ops
    build = tracer.originals.get("aecodes.errors.build_ae_error_set")
    info = build.cache_info() if build is not None else None
    lookups = info.hits + info.misses if info else 0
    out["errors.cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
    solves = totals.get("search.solve", (0.0, 0))[1]
    out["search.feasible_ratio"] = getattr(workload, "results", 0) / solves if solves else 0.0
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    plan = workloads.plan(args.workload, args.seed, args.seconds)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOAD_CLASSES[args.workload](plan, args.workdir)
    with tracer.span("setup") if tracer else contextlib.nullcontext():
        workload.setup()
    setup_end = time.monotonic()
    references = [reference_sample()]
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end, "reference": references[0]}))
        return 0

    durations, cpu, raised, segments = [], [], [], []
    last_reference = time.perf_counter()
    with open(args.workdir / "records.jsonl", "w", encoding="utf-8") as fh:
        for i, op in enumerate(plan):
            ok = True
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                with tracer.span("op", i) if tracer else contextlib.nullcontext():
                    out = workload.call(i, op)
            except Exception:
                traceback.print_exc()
                raised.append(i)
                ok = False
            durations.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c0)
            segments.append(len(references) - 1)
            fh.write(json.dumps(workload.record(i, op, out) if ok else None) + "\n")
            if time.perf_counter() - last_reference >= REFERENCE_EVERY and i + 1 < len(plan):
                references.append(reference_sample())
                last_reference = time.perf_counter()
    references.append(reference_sample())
    result = {
        "setup_end": setup_end,
        "durations": durations,
        "cpu": cpu,
        "raised": raised,
        "references": references,
        "segments": segments,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, workload, len(plan))
        result["spans"] = len(tracer.start)
        tracer.write(args.workdir / "trace.csv.gz")
    (args.workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
