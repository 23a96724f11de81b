"""Reproduction scenarios: every headline claim as one runnable check.

``run_all`` drives the criteria in ``CRITERIA`` in order; the
``reproduce-paper`` CLI subcommand and the acceptance test module are both
thin wrappers around this file, so there is a single source of truth for what
"reproduced" means.

To add a criterion, decorate a function ``criterion_k`` with
``@criterion("its-name")`` below the others and have it return
``(passed, details)``: a boolean verdict and a dict showing what was checked.
The decorator appends it to ``CRITERIA``, and its 1-based place there is its
id; calling it returns ``{"id", "name", "pass", "details"}``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, wraps

import mpmath

from .angular import cg_transition, clebsch_gordan_t
from .codes import (
    CodeBasis,
    CodeKind,
    GmdeParams,
    construct_ae_gmde,
    construct_pi_gmde,
    fixtures,
    map_e,
    map_f,
)
from .combinatorics import run_identity_sweeps
from .covariance import (
    binary_dihedral_group,
    binary_icosahedral_group,
    check_covariance,
)
from .errors import build_ae_error_set
from .exactnum import SqrtRational
from .klverify import check_conditions, check_kl_correct, check_kl_detect, cross_validate, cross_verdicts
from .search import SearchSpec, enumerate_and_search, solve_staggered

SWEEP_N_MAX = 60
SWEEP_G_CAP = 60  # bounds g when m = 0 leaves it unconstrained by n


def family_sweep_params() -> list[tuple[int, int, int, int, int]]:
    """All (g, m, delta, epsilon, t) meeting the sufficiency conditions, n <= SWEEP_N_MAX.

    Admission: m >= t, delta >= 2t, and g >= 2t with epsilon = -1 or
    g >= 2t+1 with epsilon = +1 (g >= 1 always, since the construction
    divides by g).
    """
    params = []
    for t in range(3):
        for eps in (-1, 1):
            g_min = max(1, 2 * t) if eps == -1 else 2 * t + 1
            for g in range(g_min, SWEEP_G_CAP + 1):
                m_hi = (SWEEP_N_MAX - 2 * t - 1) // (2 * g)
                for m in range(t, m_hi + 1):
                    for delta in range(2 * t, SWEEP_N_MAX - 2 * g * m):
                        params.append((g, m, delta, eps, t))
    return params


@cache
def _family_sweep():
    """Verification results over the whole family; cached across criteria."""
    entries = []
    for g, m, delta, eps, t in family_sweep_params():
        code = construct_ae_gmde(GmdeParams(g, m, delta, eps))
        cond_2t, correct, cond_t, detect = cross_verdicts(code, t)
        entries.append(
            {
                "params": (g, m, delta, eps, t),
                "cond_2t": cond_2t,
                "correct": correct,
                "cond_t": cond_t,
                "detect": detect,
            }
        )
    return entries


@cache
def _search_n9() -> tuple:
    """The staggered search at n=9, t=1, support size <= 2; cached across criteria."""
    return tuple(enumerate_and_search(9, 1, max_support_size=2))


def _search_codes() -> list:
    """Codes produced by the search component during this run."""
    results = list(_search_n9())
    # A direct higher-order staggered instance.
    res = solve_staggered(SearchSpec(25, 2, (0, 10, 20), (5, 15, 25)))
    if res.feasible:
        results.append(res)
    return results


def _perturbed(code: CodeBasis, vec_idx: int, coeff_idx: int) -> CodeBasis:
    """Scale one coefficient by 1001/1000 and renormalize, all exactly."""
    factor = Fraction(1001, 1000)
    vec = list(code.basis[vec_idx])
    old = vec[coeff_idx]
    if old.is_zero():
        raise ValueError("perturb a nonzero coefficient")
    vec[coeff_idx] = old.scaled(factor)
    norm_sq = sum((c.radicand for c in vec), Fraction(0))
    rescale = SqrtRational.sqrt(1 / norm_sq)
    vec = [c * rescale for c in vec]
    basis = list(code.basis)
    basis[vec_idx] = tuple(vec)
    return CodeBasis(code.kind, code.two_J, tuple(basis), code.label + "+eps")


def _random_rational_subspace(n: int, seed: int) -> CodeBasis:
    """An exactly orthonormal but otherwise arbitrary 2-dim subspace."""
    rng = random.Random(seed)
    v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
    w = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
    nv = sum(x * x for x in v)
    overlap = sum(a * b for a, b in zip(w, v))
    w = [wi - (overlap / nv) * vi for wi, vi in zip(w, v)]
    nw = sum(x * x for x in w)
    scale_v = SqrtRational.sqrt(1 / nv)
    scale_w = SqrtRational.sqrt(1 / nw)
    return CodeBasis(
        CodeKind.AE,
        n,
        (
            tuple(SqrtRational.from_rational(x) * scale_v for x in v),
            tuple(SqrtRational.from_rational(x) * scale_w for x in w),
        ),
        label=f"random-subspace-{seed}",
    )


# ---------------------------------------------------------------------------
# The criteria
# ---------------------------------------------------------------------------

CRITERIA: list = []


def criterion(name: str):
    """Append the decorated ``() -> (passed, details)`` to ``CRITERIA`` as criterion ``name``,
    numbered by its place there; the registered function returns the result dict."""

    def register(check):
        number = len(CRITERIA) + 1

        @wraps(check)
        def run() -> dict:
            passed, details = check()
            return {"id": number, "name": name, "pass": passed, "details": details}

        CRITERIA.append(run)
        return run

    return register


@criterion("construction-fidelity-J7half")
def criterion_1():
    """Construction fidelity of the spin-7/2 example, exact equality."""
    built = construct_ae_gmde(GmdeParams(2, 1, 2, -1))
    fix = fixtures()["J7half"]
    return built.basis == fix.basis and built.two_J == fix.two_J and built.kind == fix.kind, {}


@criterion("order-1-correction-J7half")
def criterion_2():
    """Order-1 correction of the spin-7/2 code against all 10 operators."""
    eset = build_ae_error_set(7, 1)
    report = check_kl_correct(fixtures()["J7half"], eset)
    ok = len(eset.ops) == 10 and report.passed
    return ok, {"operators": len(eset.ops), "violations": len(report.violations)}


@criterion("order-2-correction-J21half")
def criterion_3():
    """Order-2 correction of the spin-21/2 code; expected amplitude set."""
    code = construct_ae_gmde(GmdeParams(4, 2, 4, -1))
    radicands = {
        c.radicand for vec in code.basis for c in vec if not c.is_zero()
    }
    expected = {Fraction(5, 68), Fraction(7, 12), Fraction(35, 102)}
    eset = build_ae_error_set(21, 2)
    report = check_kl_correct(code, eset)
    ok = radicands == expected and len(eset.ops) == 35 and report.passed
    return ok, {"radicands": sorted(str(r) for r in radicands)}


@criterion("two-qubit-code-J27half")
def criterion_4():
    """The four-dimensional spin-27/2 code corrects t=1 and detects t=2."""
    code = fixtures()["J27half"]
    correct = check_kl_correct(code, build_ae_error_set(27, 1)).passed
    detect = check_kl_detect(code, build_ae_error_set(27, 2)).passed
    return correct and detect, {"correct_t1": correct, "detect_t2": detect}


@criterion("sufficiency-sweep-n60")
def criterion_5():
    """Family sweep up to n=60: conditions and direct checks all pass."""
    entries = _family_sweep()
    bad = [e["params"] for e in entries if not (e["cond_2t"] and e["correct"])]
    return not bad, {"instances": len(entries), "failures": bad[:10]}


@criterion("cross-validation")
def criterion_6():
    """No conditions-pass/direct-fail counterexample, sweep plus search codes."""
    entries = _family_sweep()
    counterexamples = []
    for e in entries:
        if e["cond_2t"] and not e["correct"]:
            counterexamples.append(("correct", e["params"]))
        if e["cond_t"] and e["detect"] is False:
            counterexamples.append(("detect", e["params"]))
    searched = _search_codes()
    counterexamples += [
        ("cross", r.code.label) for r in searched if not cross_validate(r.code, r.spec.t)
    ]
    return not counterexamples, {
        "sweep_instances": len(entries),
        "search_codes": len(searched),
        "counterexamples": counterexamples[:10],
    }


@criterion("mapping-identities")
def criterion_7():
    """Mapping identities: e carries the PI construction to the AE one; f is an involution."""
    mismatches = []
    for g in range(1, 6):
        for m in range(4):
            for delta in range(7):
                for eps in (-1, 1):
                    p = GmdeParams(g, m, delta, eps)
                    ae = construct_ae_gmde(p)
                    mapped = map_e(construct_pi_gmde(p))
                    if ae.basis != mapped.basis or ae.two_J != mapped.two_J:
                        mismatches.append((g, m, delta, eps))
    spin_codes = [
        fixtures()["J7half"].with_kind(CodeKind.SPIN),
        fixtures()["J27half"].with_kind(CodeKind.SPIN),
    ]
    involution_ok = all(
        map_f(map_f(c).with_kind(CodeKind.SPIN)).basis == c.basis for c in spin_codes
    )
    return not mismatches and involution_ok, {
        "mismatches": mismatches[:5], "involution": involution_ok,
    }


@criterion("binomial-identity-oracles")
def criterion_8():
    """Exhaustive binomial-identity sweeps."""
    results = run_identity_sweeps()
    return results["all_passed"], {
        k: v["passed"] for k, v in results.items() if isinstance(v, dict)
    }


@criterion("clebsch-gordan-consistency")
def criterion_9():
    """Clebsch-Gordan consistency: closed form vs general routine; completeness sums."""
    mismatch = 0
    checked = 0
    for n in range(13):
        for t in range(3):
            if n < 2 * t:
                continue
            for r in range(t + 1):
                for a in range(t - r, t + r + 1):
                    for q in range(t - r, t + r + 1):
                        for j in range(-min(a, q) - 2, n - max(a, 2 * t - q) + 3):
                            checked += 1
                            # C_{r,a}^q(j) at doubled labels: j1 = n/2, m1 = j+a-n/2, j2 = r,
                            # m2 = t-a, J = n/2-t+q, M = j-n/2+t
                            general = clebsch_gordan_t(
                                n, 2 * (j + a) - n, 2 * r, 2 * (t - a),
                                n - 2 * t + 2 * q, 2 * (j + t) - n,
                            )
                            if cg_transition(n, t, r, a, q, j) != general:
                                mismatch += 1
    ortho_bad = 0
    for tj1 in range(0, 9):
        for tj2 in range(0, 9):
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    total = Fraction(0)
                    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                        total += clebsch_gordan_t(
                            tj1, tm1, tj2, tm2, tJ, tm1 + tm2
                        ).radicand
                    if total != 1:
                        ortho_bad += 1
    return mismatch == 0 and ortho_bad == 0, {
        "pairs_checked": checked, "mismatches": mismatch, "ortho_bad": ortho_bad,
    }


@criterion("staggered-search-witness")
def criterion_10():
    """Search witness at n=9, t=1 with the exact solution, all results verified."""
    results = _search_n9()
    witness = next(
        (
            r
            for r in results
            if r.spec.support0 == (0, 6) and r.spec.support1 == (3, 9)
        ),
        None,
    )
    expected_x = {0: Fraction(1, 4), 6: Fraction(3, 4)}
    expected_y = {3: Fraction(3, 4), 9: Fraction(1, 4)}
    witness_ok = witness is not None and witness.x == expected_x and witness.y == expected_y
    all_pass = all(
        check_kl_correct(r.code, build_ae_error_set(9, 1)).passed for r in results
    )
    return witness_ok and all_pass, {"results": len(results), "witness_found": witness is not None}


@criterion("group-covariance")
def criterion_11():
    """Covariance of the example codes; random subspaces are rejected."""
    bits = 200
    tol = 1e-10
    fx = fixtures()
    bd8 = binary_dihedral_group(4, bits)
    twoi = binary_icosahedral_group(bits)
    r_bd = check_covariance(fx["J11half"], bd8, tol, bits)
    r_2i = check_covariance(fx["J7half"], twoi, tol, bits)
    neg_bd = check_covariance(_random_rational_subspace(11, seed=7), bd8, tol, bits)
    neg_2i = check_covariance(_random_rational_subspace(7, seed=11), twoi, tol, bits)
    negatives_fail = not neg_bd.passed and not neg_2i.passed
    return r_bd.passed and r_2i.passed and negatives_fail, {
        "J11half_BD8_residual": mpmath.nstr(r_bd.max_residual, 6),
        "J7half_2I_residual": mpmath.nstr(r_2i.max_residual, 6),
        "negatives_fail": negatives_fail,
    }


@criterion("negative-controls")
def criterion_12():
    """Negative controls: duplication breaks orthogonality; any perturbation is caught."""
    fx = fixtures()
    base = fx["J7half"]
    dup = CodeBasis(base.kind, base.two_J, (base.basis[0], base.basis[0]))
    dup_caught = not check_conditions(dup, 1, 2).c1
    orders = {"J7half": 1, "J21half": 2, "J27half": 1, "J11half": 1}
    missed = []
    for name, code in fx.items():
        t = orders[name]
        eset = build_ae_error_set(code.two_J, t)
        for vi in range(code.dim):
            for ci in code.support(vi):
                bent = _perturbed(code, vi, ci)
                flipped = (
                    not check_kl_correct(bent, eset).passed
                    or not check_conditions(bent, t, 2 * t).all_pass
                )
                if not flipped:
                    missed.append((name, vi, ci))
    return dup_caught and not missed, {"duplicate_caught": dup_caught, "missed_perturbations": missed}


def run_all() -> dict:
    results = [fn() for fn in CRITERIA]
    return {"criteria": results, "all_pass": all(r["pass"] for r in results)}
