"""The fixed operation lists of the four workloads, made from a seed.

Nothing here imports aecodes: a list is plain data that depends only on the
workload, the seed and the run length, so every run of one seed sees the
same inputs in the same order whatever the program does with them.

The run length sets how many operations a list holds, through a per-operation
cost estimate measured once on a 2-core x86-64 machine under Python 3.11.
The estimate depends on the list's shape, never on the seed, so lists of one
length hold the same number of operations for every seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("sweep", "spin-scale", "search", "covariance")

# --- sweep -----------------------------------------------------------------

FAMILY_N_MAX = 60
FAMILY_G_CAP = 60  # bounds g when m = 0 leaves it unconstrained by n
SWEEP_OPS_PER_SECOND = 80
SWEEP_NEGATIVE_EVERY = 10  # one operation in ten is a negative control


def family_instances(n_max: int = FAMILY_N_MAX) -> list[tuple[int, int, int, int, int]]:
    """Every (g, m, delta, eps, t) of the family sweep with n <= n_max and t <= 2.

    Admission is the sufficiency condition: m >= t, delta >= 2t, and g >= 2t
    with eps = -1 or g >= 2t+1 with eps = +1 (g >= 1 always).
    """
    out = []
    for t in range(3):
        for eps in (-1, 1):
            g_min = max(1, 2 * t) if eps == -1 else 2 * t + 1
            for g in range(g_min, FAMILY_G_CAP + 1):
                for m in range(t, (n_max - 2 * t - 1) // (2 * g) + 1):
                    for delta in range(2 * t, n_max - 2 * g * m):
                        out.append((g, m, delta, eps, t))
    return out


def _stratified(items: list, count: int, rng: random.Random, stratum) -> list:
    """A systematic sample of ``count`` items in stratum order.

    Every stratum contributes in proportion to its size, so the sample's
    make-up, and with it the cost of the list, hardly moves with the seed.
    """
    ranked = sorted(items, key=lambda item: (stratum(item), rng.random()))
    step = len(ranked) / count
    offset = rng.random() * step
    return [ranked[int(offset + i * step)] for i in range(count)]


def sweep_plan(seed: int, seconds: int) -> list[dict]:
    """Family instances and negative controls, stratified by (t, m, n).

    A negative control takes a t >= 1 instance and scales one coefficient by
    1001/1000 before renormalizing; ``perturb`` names the basis vector and a
    position in its support (taken modulo the support size).
    """
    rng = random.Random(f"sweep:{seed}")
    total = max(SWEEP_NEGATIVE_EVERY, SWEEP_OPS_PER_SECOND * seconds)
    n_neg = total // SWEEP_NEGATIVE_EVERY
    instances = family_instances()

    def stratum(p):
        g, m, delta, _, t = p
        return (t, m, 2 * g * m + delta + 1)

    ops = [
        {"kind": "family", "params": p, "perturb": None}
        for p in _stratified(instances, total - n_neg, rng, stratum)
    ]
    controls = _stratified([p for p in instances if p[4] >= 1], n_neg, rng, stratum)
    ops += [
        {"kind": "control", "params": p, "perturb": (rng.randrange(2), rng.randrange(1 << 16))}
        for p in controls
    ]
    rng.shuffle(ops)
    return ops


# --- spin-scale --------------------------------------------------------------

# (t, centre of 2J, estimated seconds for errors + verify).  Orders and spins
# are paired so that operations cost about the same (0.8-2 s): the median of a
# list then rests on many operations, not on one.  Centres are at least 10
# apart and the seed moves each by at most 3, so a round's spins are
# distinct; later rounds step past spins already used.
SPIN_ROUND = (
    (4, 86, 1.90),
    (3, 100, 1.20),
    (3, 110, 1.25),
    (3, 120, 1.30),
    (3, 130, 1.40),
    (3, 140, 1.45),
    (2, 160, 0.75),
    (2, 170, 0.80),
    (2, 180, 0.85),
    (2, 190, 0.90),
    (2, 200, 0.95),
    (2, 210, 1.00),
    (2, 220, 1.05),
    (2, 230, 1.15),
    (2, 240, 1.25),
)
SPIN_JITTER = 3


def _rounds(seconds: int, round_seconds: float) -> int:
    return max(1, round(seconds / round_seconds))


def family_params_for(two_j: int, t: int, eps: int) -> tuple[int, int, int, int]:
    """An admissible (g, m, delta, eps) with n = two_j at order t."""
    g = 2 * t if eps == -1 else 2 * t + 1
    m = t
    delta = two_j - 1 - 2 * g * m
    if delta < 2 * t:
        raise ValueError(f"2J={two_j} is too small for an order-{t} family code")
    return g, m, delta, eps


def spin_plan(seed: int, seconds: int) -> list[dict]:
    """Distinct spins from 2J of about 83 to 243, each with its own code file."""
    rng = random.Random(f"spin-scale:{seed}")
    ops = []
    used: set[int] = set()
    for _ in range(_rounds(seconds, sum(c for _, _, c in SPIN_ROUND))):
        for t, centre, _ in SPIN_ROUND:
            two_j = centre + rng.randint(-SPIN_JITTER, SPIN_JITTER)
            while two_j in used:
                two_j += 1
            used.add(two_j)
            eps = rng.choice((-1, 1))
            ops.append({"two_j": two_j, "t": t, "family": family_params_for(two_j, t, eps)})
    rng.shuffle(ops)
    return ops


# --- search ----------------------------------------------------------------

# (n, t, max support size, estimated seconds).  The t = 1 searches yield many
# codes that are each re-verified; in the t = 2, size-2 ones every solve is
# infeasible.  (9, 1, 2) holds the paper's witness.  Searches are kept short
# so that a run holds many of each.
SEARCH_ROUND = (
    (9, 1, 2, 0.06),
    (10, 1, 2, 0.15),
    (11, 1, 2, 0.21),
    (12, 1, 2, 0.45),
    (14, 2, 2, 0.12),
    (15, 2, 2, 0.22),
    (16, 2, 2, 0.30),
    (17, 2, 2, 0.43),
)


def search_plan(seed: int, seconds: int) -> list[dict]:
    """Whole rounds of the search triples; the seed sets their order."""
    rng = random.Random(f"search:{seed}")
    rounds = _rounds(seconds, sum(c for *_, c in SEARCH_ROUND))
    ops = [
        {"n": n, "t": t, "max_size": size}
        for _ in range(rounds)
        for n, t, size, _ in SEARCH_ROUND
    ]
    rng.shuffle(ops)
    return ops


# --- covariance --------------------------------------------------------------

# (code, 2J, group, estimated seconds).  The two named codes are the paper's
# covariant examples; "random" is a rational 2-dim subspace of spin 2J/2.  A
# round is short so that a run holds every check several times and the
# median falls on copies of one check.
COVARIANCE_ROUND = (
    ("J11half", 11, "bd", 0.33),
    ("J7half", 7, "2i", 0.11),
    ("random", 11, "2o", 0.33),
    ("random", 13, "2i", 0.50),
    ("random", 15, "bd", 1.39),
    ("random", 17, "2o", 0.96),
    ("random", 19, "2i", 1.15),
    ("random", 27, "2o", 3.20),
)
COVARIANCE_BITS = 200
COVARIANCE_TOLERANCE = 1e-10
BD_ORDER_PARAM = 4  # BD_8
# The random subspaces come from this one stream, not from the run's seed,
# and every round repeats them.  The stream's 2J=15 subspace under BD_8 makes
# the program's SVD (covariance.operator_norm) fail to converge; a seeded
# stream would hit that fault on some seeds only, so the run-to-run share of
# failed operations would move with the seed.
SUBSPACE_STREAM = "covariance:1"


def random_orthogonal_pair(rng: random.Random, two_j: int) -> tuple[list, list]:
    """Two nonzero, exactly orthogonal rational vectors of length 2J+1."""
    while True:
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(two_j + 1)]
        w = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(two_j + 1)]
        nv = sum(x * x for x in v)
        if nv == 0:
            continue
        overlap = sum(a * b for a, b in zip(w, v)) / nv
        w = [wi - overlap * vi for wi, vi in zip(w, v)]
        if any(w):
            return v, w


def covariance_plan(seed: int, seconds: int) -> list[dict]:
    """Whole rounds of the fixed covariance checks; the seed sets their order."""
    stream = random.Random(SUBSPACE_STREAM)
    round_ = [
        {
            "code": code,
            "two_j": two_j,
            "group": group,
            "vectors": random_orthogonal_pair(stream, two_j) if code == "random" else None,
        }
        for code, two_j, group, _ in COVARIANCE_ROUND
    ]
    ops = round_ * _rounds(seconds, sum(c for *_, c in COVARIANCE_ROUND))
    random.Random(f"covariance:{seed}").shuffle(ops)
    return ops


PLANS = {
    "sweep": sweep_plan,
    "spin-scale": spin_plan,
    "search": search_plan,
    "covariance": covariance_plan,
}


def plan(workload: str, seed: int, seconds: int) -> list[dict]:
    return PLANS[workload](seed, seconds)
