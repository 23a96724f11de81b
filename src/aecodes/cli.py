"""Command-line front end: construction, verification, search, and reports.

All reports are emitted to stdout as JSON; diagnostics go to stderr.  Exit
status is 0 for a pass, 1 for a verification failure, 2 for unusable input,
and 3 when ``search`` finds a staggered solution that fails direct KL
verification, which would falsify the staggering argument.  Each report
carries a manifest (command, input digests, parameters, verdict summary,
tool version) that is byte-for-byte reproducible for identical inputs and
parameters.  Every subcommand hands its report to ``_report``, which writes it
by ``jsonfmt.write_json``; the Gram entries, violations and (C3)/(C4) failures
of ``verify``, the operators of ``errors`` and the results of ``search`` are
generators of item texts, written one at a time rather than held as one string.

``covariance --bits`` (default 200) must lie between 53 and
MAX_PRECISION_BITS (4096) bits; other values exit 2 before any work.  Every
other report renders its decimals at a fixed precision, so it stays
reproducible from a manifest that records no precision: a radical sum at 200
bits (``RadicalSum.to_decimal(200)``), and the ``cg`` value as 62 digits of
``SqrtRational.to_mpf(200)``, which works at 210 bits.  mpmath is imported here,
not at ``exactnum``'s first decimal, so that no in-process ``main`` call pays for it.
Likewise ``errors --two-j`` must lie between 0 and MAX_TWO_J (512), and so
must the ``two_J`` of a code file given to ``verify``, ``map`` or
``covariance``, the n = 2gm + delta + 1 of ``construct``, and twice the
absolute value of each ``cg`` label (the slowest admitted call found, of
13,000 random label sets, took about 4 ms on 2 cores);
the order ``--t`` of ``errors``, ``verify`` and ``search`` must lie between
0 and MAX_T (6).  ``search`` also needs 2t+1 <= ``--n`` <= MAX_TWO_J,
1 <= ``--max-size`` <= n+1 and ``--limit`` >= 0, and it solves at most
MAX_SEARCH_PAIRS (100,000) staggered support pairs (``support_pair_count``).
``covariance --full-group`` checks every element of the closure, as many as
the group's ``order``.  Its bounds are ``check_covariance``'s: it refuses
before any work, and the command exits 2, when the order exceeds
``covariance.MAX_CLOSURE_ORDER`` (4096) or order x (2J+1)^2 x (bits + 2J + 32)
exceeds ``covariance.MAX_FULL_GROUP_WORK`` (7 x 10^8).
``verify --t-prime`` sets the order t' of ``--mode conditions`` (default 2t);
with any other mode it exits 2 before any check, rather than go unused.

Besides mpmath, this module imports only what ``construct``, ``verify``,
``errors`` and ``map`` run; ``cg``, ``covariance``, ``search``, ``identities``
and ``reproduce-paper`` each import their own modules, so a process loads what
its subcommand uses.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import sys
from pathlib import Path

import mpmath

from . import __version__
from .codes import CodeBasis, GmdeParams, construct_ae_gmde, construct_pi_gmde, map_e, map_f, map_h
from .errors import build_ae_error_set, build_spin_error_set, operator_texts
from .exactnum import sqrt_rational_to_json
from .jsonfmt import to_json, write_json
from .klverify import check_conditions, check_kl_correct, check_kl_detect, cross_validate

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_FALSIFIED = 3

# Far above the 200-bit default and a 400-bit re-check; unbounded, a value
# such as 100000000 makes a covariance run go on with no end in sight.
MAX_PRECISION_BITS = 4096

# At 2J = 512 and t = 6, `errors` writes 455 operators of up to 513 entries
# (about 50 MB of JSON); unbounded, a large --two-j or --t runs for hours.
MAX_TWO_J = 512
MAX_T = 6

# `search` solves every staggered support pair that can carry a vertex.  At
# the largest n admitted for t <= 2 and max-size 2-4, the slowest runs are
# (21, 1, 3), with 84,000 pairs, 36,596 codes and a 15.5 MB report, and
# (24, 0, 2), with 90,300 pairs and codes and a 33.1 MB report; they take 7-8 s and
# 9 s end to end, and 16 s and 14-30 s with --out, and peak at about 110 MB and
# 195 MB RSS (2-core machine, Python 3.11).
# At t = 2 and max-size 2 no pair has the 2t+2 indices a vertex needs, so
# every n is admitted.
MAX_SEARCH_PAIRS = 100_000


def _bounded(name: str, value: int, low: int, high: int) -> int:
    if not low <= value <= high:
        raise ValueError(f"{name} must be between {low} and {high}, got {value}")
    return value


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _params(args, *names) -> dict:
    return {k: getattr(args, k) for k in names}


def _report(
    command: str, inputs: dict, params: dict, verdicts: dict, body: dict, write=None
) -> None:
    """Write ``to_json(body | {"manifest": manifest}) + "\\n"`` by ``write_json``, to ``write``
    or else stdout; an iterator value in ``body`` is an array of item texts."""
    write = write or sys.stdout.write
    manifest = {"command": command, "inputs": inputs, "parameters": params,
                "verdicts": verdicts, "tool_version": __version__}
    write_json(body | {"manifest": manifest}, write)
    write("\n")


def _parse_twice(text: str) -> int:
    """Twice the label ``text``: an optional ``-``, ASCII digits, then an optional ``/2``."""
    whole = text.removesuffix("/2")
    if not (whole.isascii() and whole.removeprefix("-").isdigit()):
        raise ValueError(f"label {text!r} is not an integer or a/2")
    twice = int(whole) if whole != text else 2 * int(whole)
    _bounded(f"twice |{text}|", abs(twice), 0, MAX_TWO_J)
    return twice


def _load_code(path) -> tuple[CodeBasis, str]:
    """The code in ``path`` and the digest of its bytes, read once."""
    data = Path(path).read_bytes()
    try:
        raw = json.loads(data.decode("utf-8"))
    except RecursionError:
        raise ValueError("the code file nests too deeply to parse") from None
    code = CodeBasis.from_dict(raw)
    _bounded("two_J", code.two_J, 1, MAX_TWO_J)
    return code, _digest(data)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_construct(args) -> int:
    params = GmdeParams(args.g, args.m, args.delta, args.epsilon)
    _bounded("n = 2gm + delta + 1", params.n, 1, MAX_TWO_J)
    build = construct_ae_gmde if args.kind == "ae" else construct_pi_gmde
    code = build(params)
    if args.label:
        code = code.with_kind(code.kind, label=args.label)
    digest = _digest(code.save(args.out))
    _report(
        "construct",
        {args.out: digest},
        _params(args, "g", "m", "delta", "epsilon", "kind", "out"),
        {"n": code.two_J, "dim": code.dim, "written": str(args.out)},
        {"code": {"kind": code.kind.value, "two_J": code.two_J, "label": code.label}},
    )
    return EXIT_PASS


def cmd_verify(args) -> int:
    _bounded("--t", args.t, 0, MAX_T)
    if args.t_prime is not None and args.mode != "conditions":
        raise ValueError(f"--t-prime applies only to --mode conditions, not --mode {args.mode}")
    code, digest = _load_code(args.code_file)
    if args.mode in ("correct", "detect"):
        checker = check_kl_correct if args.mode == "correct" else check_kl_detect
        body = checker(code, build_ae_error_set(code.two_J, args.t)).body()
    elif args.mode == "conditions":
        t_prime = args.t_prime if args.t_prime is not None else 2 * args.t
        body = check_conditions(code, args.t, t_prime).body()
    else:  # cross
        body = {"mode": "cross", "pass": cross_validate(code, args.t)}
    passed = body["pass"]
    params = {"file": str(args.code_file)} | _params(args, "t", "mode", "t_prime")
    _report("verify", {args.code_file: digest}, params, {"pass": passed}, {"report": body})
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_errors(args) -> int:
    build = build_spin_error_set if args.spin else build_ae_error_set
    eset = build(_bounded("--two-j", args.two_j, 0, MAX_TWO_J), _bounded("--t", args.t, 0, MAX_T))
    count = len(eset.ops)
    # The operators are written one at a time rather than held as a second copy.
    body = {"count": count, "operators": operator_texts(eset.ops), "t": eset.t, "two_J": args.two_j}
    _report("errors", {}, _params(args, "two_j", "t", "spin"), {"count": count}, body)
    return EXIT_PASS


def cmd_cg(args) -> int:
    from .angular import clebsch_gordan_t

    labels = (args.j1, args.m1, args.j2, args.m2, args.J, args.M)
    value = clebsch_gordan_t(*(_parse_twice(x) for x in labels))
    # 62 digits of a 210-bit value (to_mpf(200) works at 210 bits), not to_decimal(200): that
    # rounds to 200 bits first, which changes the last digits of most values, the cg pin's too.
    decimal = mpmath.nstr(value.to_mpf(200), 62)
    body = {"value": sqrt_rational_to_json(value), "decimal": decimal}
    _report("cg", {}, _params(args, "j1", "m1", "j2", "m2", "J", "M"), {"sign": value.sign}, body)
    return EXIT_PASS


def cmd_map(args) -> int:
    code, digest = _load_code(args.code_file)
    mapper = {"e": map_e, "h": map_h, "f": map_f}[args.via]
    mapped = mapper(code)
    inputs = {args.code_file: digest, args.out: _digest(mapped.save(args.out))}
    _report(
        "map",
        inputs,
        {"via": args.via, "file": str(args.code_file), "out": str(args.out)},
        {"written": str(args.out)},
        {"kind_in": code.kind.value, "kind_out": mapped.kind.value},
    )
    return EXIT_PASS


def cmd_search(args) -> int:
    from .search import StaggeringFailure, enumerate_and_search, support_pair_count

    _bounded("--t", args.t, 0, MAX_T)
    _bounded("--n", args.n, 2 * args.t + 1, MAX_TWO_J)
    _bounded("--max-size", args.max_size, 1, args.n + 1)
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be nonnegative, got {args.limit}")
    pairs = support_pair_count(args.n, args.t, args.max_size)
    if pairs > MAX_SEARCH_PAIRS:
        raise ValueError(f"search would solve {pairs} support pairs, more than {MAX_SEARCH_PAIRS}")
    try:
        results = enumerate_and_search(
            args.n,
            args.t,
            max_support_size=args.max_size,
            limit=args.limit,
            require_counter_symmetric=args.counter_symmetric,
        )
    except StaggeringFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    paths = [str(out_dir / f"code_{i:03d}.json") for i in range(len(results))] if out_dir else []
    # The code files go first: their digests are in the manifest, which precedes "results".
    written = {path: _digest(res.code.save(path)) for path, res in zip(paths, results)}
    # The guard in enumerate_and_search has passed check_kl_correct at (n, t), which implies
    # both halves of cross_validate (see its docstring).
    verdicts = {"verdicts": {"kl_correct": True, "cross_validate": True}}
    entries = (
        to_json(res.to_dict() | verdicts | ({"file": paths[i]} if paths else {}), "\n    ")
        for i, res in enumerate(results)
    )

    with contextlib.ExitStack() as files:
        outs = [sys.stdout]  # and summary.json, byte for byte, with --out
        if out_dir is not None:
            outs.append(files.enter_context((out_dir / "summary.json").open("w", encoding="utf-8")))

        def write(text: str) -> None:
            for out in outs:
                out.write(text)

        _report(
            "search",
            written,
            _params(args, "n", "t", "max_size", "limit", "counter_symmetric"),
            {"found": len(results)},
            {"n": args.n, "t": args.t, "found": len(results), "results": entries},
            write,
        )
    return EXIT_PASS


def cmd_covariance(args) -> int:
    from . import covariance

    bits = _bounded("--bits", args.bits, 53, MAX_PRECISION_BITS)
    code, digest = _load_code(args.code_file)
    group = {
        "bd": functools.partial(covariance.binary_dihedral_group, args.b),
        "2o": covariance.binary_octahedral_group,
        "2i": covariance.binary_icosahedral_group,
    }[args.group](bits)
    report = covariance.check_covariance(code, group, args.tol, bits, full_group=args.full_group)
    _report(
        "covariance",
        {args.code_file: digest},
        {"file": str(args.code_file)} | _params(args, "bits", "group", "b", "tol", "full_group"),
        {"pass": report.passed},
        {"report": report.to_dict()},
    )
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_identities(args) -> int:
    from .combinatorics import run_identity_sweeps

    results = run_identity_sweeps()
    _report("identities", {}, {}, {"all_passed": results["all_passed"]}, {"report": results})
    return EXIT_PASS if results["all_passed"] else EXIT_FAIL


def cmd_reproduce(args) -> int:
    from . import acceptance

    outcome = acceptance.run_all()
    _report("reproduce-paper", {}, {}, {"all_pass": outcome["all_pass"]}, {"report": outcome})
    return EXIT_PASS if outcome["all_pass"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache  # parse_args leaves the parser as it was, so one serves every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aecodes",
        description="Construct, verify, search, and inspect absorption-emission codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code from (g, m, delta, epsilon)")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--epsilon", type=int, choices=(-1, 1), required=True)
    p.add_argument("--kind", choices=("ae", "pi"), default="ae")
    p.add_argument("--label", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a code file")
    p.add_argument("code_file")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--mode", choices=("correct", "detect", "conditions", "cross"), default="correct")
    p.add_argument("--t-prime", dest="t_prime", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("errors", help="emit an error operator set")
    p.add_argument("--two-j", dest="two_j", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--spin", action="store_true")
    p.set_defaults(func=cmd_errors)

    p = sub.add_parser("cg", help="print one Clebsch-Gordan coefficient")
    for name in ("j1", "m1", "j2", "m2", "J", "M"):
        p.add_argument(
            f"--{name}",
            required=True,
            help="integer or half-integer; use --m1=-1/2 for negative values",
        )
    p.set_defaults(func=cmd_cg)

    p = sub.add_parser("map", help="relabel a code between kinds")
    p.add_argument("code_file")
    p.add_argument("--via", choices=("e", "h", "f"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("search", help="search staggered-support codes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--max-size", dest="max_size", type=int, default=2)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--counter-symmetric", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("covariance", help="check group covariance of a code file")
    p.add_argument("code_file")
    p.add_argument("--group", choices=("2o", "2i", "bd"), required=True)
    p.add_argument("--b", type=int, default=4, help="b for the binary dihedral family")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--bits", type=int, default=200)
    p.add_argument("--full-group", action="store_true")
    p.set_defaults(func=cmd_covariance)

    p = sub.add_parser("identities", help="run the binomial identity sweeps")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("reproduce-paper", help="run every reproduction scenario")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
