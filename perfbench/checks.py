"""Output checks made apart from the program.

Each check takes what the program produced for one operation and returns a
list of problems, empty when the output is right.  The checks use their own
Fraction arithmetic and known properties of the method (moment matching, the
Clebsch-Gordan orthogonality sum, closed forms, group laws); none compares
against a saved copy of earlier output.  Only ``check_group_laws`` and
``check_logical_actions`` call the program, to test properties that its
Wigner matrices must have.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

LAW_TOLERANCE = "1e-40"  # at 200 bits, far below any real violation


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def power_moments(weights: dict[int, Fraction], order: int) -> list[Fraction]:
    """sum_j j**k * w_j for k = 0..order."""
    return [sum((w * j**k for j, w in weights.items()), Fraction(0)) for k in range(order + 1)]


def squared_weights(vector: list) -> dict[int, Fraction]:
    """{index: radicand} from a vector recorded as [index, sign, num, den] rows."""
    return {j: Fraction(num, den) for j, _, num, den in vector}


# --- sweep -----------------------------------------------------------------


def check_sweep(op: dict, rec: dict) -> list[str]:
    """One family instance or negative control, decided four ways by the program."""
    g, m, delta, _, t = op["params"]
    problems = []
    if rec["two_j"] != 2 * g * m + delta + 1:
        problems.append(f"code has 2J={rec['two_j']}, expected {2 * g * m + delta + 1}")
    moments = [power_moments(squared_weights(v), 2 * t) for v in rec["basis"]]
    if len(moments) != 2 or any(mo[0] != 1 for mo in moments):
        problems.append("basis is not two unit vectors")
    equal = all(mo == moments[0] for mo in moments[1:])
    if op["kind"] == "family":
        if not equal:
            problems.append(f"family code has unequal moments up to order {2 * t}")
        if not rec["cond_2t"]:
            problems.append("(C1)-(C4) at 2t reported failing on an admitted family code")
        if not rec["correct"]:
            problems.append("KL correction reported failing on an admitted family code")
    else:
        if equal:
            problems.append("negative control kept equal moments")
        if rec["correct"]:
            problems.append("KL correction reported passing on a code with unequal moments")
        if rec["cond_2t"]:
            problems.append("(C1)-(C4) at 2t reported passing on a code with unequal moments")
    if rec["cond_t"] and not rec["detect"]:
        problems.append("conditions at t pass but KL detection fails")
    return problems


# --- spin-scale ----------------------------------------------------------------


def rank1_closed_form(two_j: int, delta_j: int, j: int) -> tuple[int, Fraction]:
    """(sign, radicand) of C^{J+dJ, m}_{J, m; 1, 0} for dJ = 0 or +1, m = j - J."""
    two_m = 2 * j - two_j
    if delta_j == 0:  # m / sqrt(J(J+1))
        return (two_m > 0) - (two_m < 0), Fraction(two_m * two_m, two_j * (two_j + 2))
    # sqrt((J-m+1)(J+m+1) / ((2J+1)(J+1)))
    return 1, Fraction(2 * (two_j - j + 1) * (j + 1), (two_j + 1) * (two_j + 2))


def check_errors_report(two_j: int, t: int, report: dict) -> list[str]:
    """Operator count, Clebsch-Gordan unitarity and the rank-1 closed forms."""
    problems = []
    expected = {
        (r, dj, dm) for r in range(t + 1) for dj in range(-r, r + 1) for dm in range(-r, r + 1)
    }
    ops = report.get("operators", [])
    if report.get("count") != len(expected) or len(ops) != len(expected):
        problems.append(f"{len(ops)} operators (count {report.get('count')}), expected {len(expected)}")
    seen = set()
    sums: dict[tuple[int, int, int], Fraction] = {}
    rank1: dict[int, dict[int, tuple[int, Fraction]]] = {0: {}, 1: {}}
    for op in ops:
        key = (op["r"], op["delta_J"], op["delta_m"])
        seen.add(key)
        if op["source_two_J"] != two_j:
            problems.append(f"operator {key} has source 2J={op['source_two_J']}")
        for e in op["entries"]:
            j, amp = e["j"], e["amplitude"]
            radicand = Fraction(int(amp["radicand_num"]), int(amp["radicand_den"]))
            if not 0 <= j <= two_j or e["two_m"] != 2 * j - two_j:
                problems.append(f"operator {key} has a bad index j={j}, 2m={e['two_m']}")
            if amp["sign"] not in (-1, 1) or radicand <= 0:
                problems.append(f"operator {key} lists a zero or malformed amplitude at j={j}")
            sums[(op["r"], op["delta_m"], j)] = sums.get((op["r"], op["delta_m"], j), 0) + radicand
            if op["r"] == 1 and op["delta_m"] == 0 and op["delta_J"] in rank1:
                rank1[op["delta_J"]][j] = (amp["sign"], radicand)
    if seen != expected:
        problems.append(f"operator labels differ from |dJ|, |dm| <= r <= {t}")
    bad = [
        (r, dm, j)
        for r in range(t + 1)
        for dm in range(-r, r + 1)
        for j in range(two_j + 1)
        if sums.get((r, dm, j), 0) != 1
    ]
    if bad:
        problems.append(f"{len(bad)} (r, dm, j) sums of squared amplitudes over dJ are not 1, e.g. {bad[0]}")
    if t >= 1:
        for delta_j, entries in rank1.items():
            for j in range(two_j + 1):
                sign, radicand = rank1_closed_form(two_j, delta_j, j)
                got = entries.get(j, (0, Fraction(0)))
                if got != (sign, radicand):
                    problems.append(
                        f"rank-1 dJ={delta_j} amplitude at j={j} is {got}, closed form {(sign, radicand)}"
                    )
                    break
    return problems


def check_verify_report(report: dict, code_path: str, code_digest: str) -> list[str]:
    problems = []
    body, manifest = report.get("report", {}), report.get("manifest", {})
    if body.get("mode") != "correct" or body.get("pass") is not True or body.get("violations"):
        problems.append("verify --mode correct did not pass on an admitted family code")
    if manifest.get("inputs", {}).get(code_path) != code_digest:
        problems.append("manifest digest differs from the SHA-256 of the code file")
    if manifest.get("verdicts") != {"pass": True}:
        problems.append(f"manifest verdicts read {manifest.get('verdicts')}")
    return problems


# --- search ----------------------------------------------------------------

WITNESS = {
    "support0": [0, 6],
    "support1": [3, 9],
    "x": {0: Fraction(1, 4), 6: Fraction(3, 4)},
    "y": {3: Fraction(3, 4), 9: Fraction(1, 4)},
}


def _weights(side: dict) -> dict[int, Fraction]:
    return {int(j): Fraction(v) for j, v in side.items()}


def check_search(op: dict, results: list[dict]) -> list[str]:
    """Every result is a staggered, normalized, nonnegative moment match."""
    n, t, size = op["n"], op["t"], op["max_size"]
    problems = []
    for res in results:
        s0, s1 = res["support0"], res["support1"]
        x, y = _weights(res["x"]), _weights(res["y"])
        label = f"result {s0}/{s1}"
        if sorted(x) != s0 or sorted(y) != s1 or not 0 < max(len(s0), len(s1)) <= size:
            problems.append(f"{label}: weights do not sit on supports of size <= {size}")
            continue
        merged = sorted(s0 + s1)
        if merged[0] < 0 or merged[-1] > n or any(b - a < 2 * t + 1 for a, b in zip(merged, merged[1:])):
            problems.append(f"{label}: supports leave [0, {n}] or are spaced by less than {2 * t + 1}")
        if any(v < 0 for v in (*x.values(), *y.values())):
            problems.append(f"{label}: a negative weight")
        if sum(x.values()) != 1 or sum(y.values()) != 1:
            problems.append(f"{label}: a side does not sum to 1")
        if power_moments(x, 2 * t) != power_moments(y, 2 * t):
            problems.append(f"{label}: moments 0..{2 * t} differ")
        code = [squared_weights(v) for v in res["basis"]]
        if code != [{j: v for j, v in x.items() if v}, {j: v for j, v in y.items() if v}]:
            problems.append(f"{label}: code coefficients do not square to the weights")
    # With at most `size` atoms a side and disjoint supports, matching moments
    # 0..2t needs 2*size > 2t+1: otherwise the difference of the two measures
    # would be a nonzero combination of at most 2t+1 atoms annihilated by a
    # nonsingular Vandermonde system.
    if size <= t and results:
        problems.append(f"{len(results)} results where no staggered solution exists")
    if (n, t, size) == (9, 1, 2) and not any(
        (r["support0"], r["support1"], _weights(r["x"]), _weights(r["y"]))
        == (WITNESS["support0"], WITNESS["support1"], WITNESS["x"], WITNESS["y"])
        for r in results
    ):
        problems.append("the n=9 witness x={0: 1/4, 6: 3/4}, y={3: 3/4, 9: 1/4} is missing")
    return problems


# --- covariance --------------------------------------------------------------


def check_covariance(op: dict, rec: dict) -> list[str]:
    if op["code"] == "random":
        if rec["passed"]:
            return [f"random subspace at 2J={op['two_j']} reported covariant under {op['group']}"]
        return []
    problems = []
    if not rec["passed"]:
        problems.append(f"{op['code']} reported not covariant under {op['group']}")
    if not Fraction(rec["max_residual"]) <= Fraction(LAW_TOLERANCE):
        problems.append(f"{op['code']} residual {rec['max_residual']} is above {LAW_TOLERANCE}")
    return problems


def _max_abs_diff(a, b):
    return max(abs(a[i, j] - b[i, j]) for i in range(a.rows) for j in range(a.cols))


def check_group_laws(groups: dict, two_j: int, bits: int) -> list[str]:
    """D(u) D(v) = D(uv) for cyclically adjacent generators of each group."""
    import mpmath
    from aecodes.angular import HalfInt, wigner_D

    problems = []
    with mpmath.workprec(bits):
        tol = mpmath.mpf(LAW_TOLERANCE)
        for name, group in groups.items():
            gens = group.generators
            d = [wigner_D(HalfInt(two_j), u, bits) for u in gens]
            for i in range(len(gens)):
                k = (i + 1) % len(gens)
                err = _max_abs_diff(d[i] * d[k], wigner_D(HalfInt(two_j), gens[i] * gens[k], bits))
                if err > tol:
                    problems.append(f"{name}: D(u)D(v) - D(uv) = {mpmath.nstr(err, 6)} at 2J={two_j}")
    return problems


def check_logical_actions(pairs, bits: int) -> list[str]:
    """The action of each generator on a covariant code is unitary."""
    import mpmath
    from aecodes.covariance import logical_action

    problems = []
    with mpmath.workprec(bits):
        tol = mpmath.mpf(LAW_TOLERANCE)
        for label, code, group in pairs:
            for u in group.generators:
                a = logical_action(code, u, bits)
                err = _max_abs_diff(a * a.transpose_conj(), mpmath.eye(a.rows))
                if err > tol:
                    problems.append(f"{label}: logical action is not unitary ({mpmath.nstr(err, 6)})")
    return problems
