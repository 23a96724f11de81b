"""End-to-end CLI behavior: files, reports, manifests, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aecodes import __version__, angular, cli, covariance, search
from aecodes.angular import clebsch_gordan_t
from aecodes.cli import main
from aecodes.codes import CodeBasis, CodeKind, GmdeParams, construct_ae_gmde, fixtures
from aecodes.errors import ErrorSet
from aecodes.exactnum import SqrtRational, sqrt_rational_to_json
from aecodes.jsonfmt import to_json, write_json
from aecodes.search import StaggeringFailure, enumerate_and_search, support_pair_count
from oracles import code_dict


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the input was validated")


class _Started(Exception):
    """Raised by ``_start``, a stub for the work a command begins once its input is admitted."""


def _start(*args, **kwargs):
    raise _Started(*args)


def _j7half_with(**fields):
    """The J7half code file with a top-level or first-coefficient field replaced."""
    data = code_dict(fixtures()["J7half"])
    for key, value in fields.items():
        (data if key in data else data["basis"][0][0])[key] = value
    return data


def _assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


class TestConstructVerify:
    def test_roundtrip_pass(self, tmp_path, capsys):
        path = str(tmp_path / "q7.json")
        status, report = run(
            capsys,
            "construct", "--g", "2", "--m", "1", "--delta", "2",
            "--epsilon", "-1", "--kind", "ae", "--out", path,
        )
        assert status == 0
        assert report["code"]["two_J"] == 7
        status, report = run(capsys, "verify", path, "--t", "1", "--mode", "correct")
        assert status == 0
        assert report["report"]["pass"] is True
        assert report["manifest"]["inputs"][path]

    def test_file_verdicts_match_in_memory(self, tmp_path, capsys):
        path = str(tmp_path / "q11.json")
        run(
            capsys,
            "construct", "--g", "3", "--m", "1", "--delta", "4",
            "--epsilon", "1", "--kind", "ae", "--out", path,
        )
        loaded, _ = cli._load_code(path)
        assert loaded.basis == fixtures()["J11half"].basis
        for mode, expected in (("correct", 0), ("conditions", 0), ("cross", 0)):
            status, _ = run(capsys, "verify", path, "--t", "1", "--mode", mode)
            assert status == expected

    def test_broken_code_exits_one(self, tmp_path, capsys):
        code = fixtures()["J7half"]
        broken = CodeBasis(code.kind, code.two_J, (code.basis[0], code.basis[0]))
        path = tmp_path / "broken.json"
        broken.save(path)
        status, report = run(capsys, "verify", str(path), "--t", "1", "--mode", "correct")
        assert status == 1
        assert report["report"]["violations"]

    def test_detect_mode(self, tmp_path, capsys):
        path = tmp_path / "q27.json"
        fixtures()["J27half"].save(path)
        status, report = run(capsys, "verify", str(path), "--t", "2", "--mode", "detect")
        assert status == 0

    def test_conditions_mode_with_t_prime(self, tmp_path, capsys):
        path = tmp_path / "q7.json"
        fixtures()["J7half"].save(path)
        status, report = run(
            capsys, "verify", str(path), "--t", "1", "--mode", "conditions", "--t-prime", "1"
        )
        assert status == 0
        assert report["report"]["t_prime"] == 1

    @pytest.mark.parametrize("extra", [[], ["--t-prime", "4"]])
    def test_conditions_mode_order_above_spin_exits_two(self, tmp_path, capsys, extra):
        # 2J = 7 < 2t = 8 leaves every condition image empty, which would pass vacuously
        path = tmp_path / "q7.json"
        fixtures()["J7half"].save(path)
        assert main(["verify", str(path), "--t", "4", "--mode", "conditions", *extra]) == 2
        _assert_one_error_line(capsys)

    @pytest.mark.parametrize("mode", ["correct", "detect", "cross"])
    def test_t_prime_outside_conditions_mode_exits_two(self, tmp_path, capsys, monkeypatch, mode):
        # the order t' sets only the conditions check; elsewhere it would go unused yet be recorded
        path = tmp_path / "q7.json"
        fixtures()["J7half"].save(path)
        for name in ("build_ae_error_set", "check_kl_correct", "check_kl_detect", "cross_validate"):
            monkeypatch.setattr(cli, name, _must_not_run)
        assert main(["verify", str(path), "--t", "1", "--mode", mode, "--t-prime", "5"]) == 2
        _assert_one_error_line(capsys)

    def test_missing_file_exits_two(self, capsys):
        status = main(["verify", "/nonexistent/q.json", "--t", "1"])
        assert status == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_basis_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"kind": "AE", "two_J": 7, "label": "", "basis": []}))
        for argv in (
            ["verify", str(path), "--t", "1"],
            ["covariance", str(path), "--group", "bd"],
        ):
            assert main(argv) == 2
            _assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "field", ["kind", "two_J", "basis", "sign", "radicand_num", "radicand_den"]
    )
    def test_missing_field_is_named(self, tmp_path, capsys, field):
        data = code_dict(fixtures()["J7half"])
        del (data if field in data else data["basis"][0][0])[field]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path), "--t", "1"]) == 2
        assert _assert_one_error_line(capsys) == f"error: missing field {field!r}\n"

    def test_zero_radicand_denominator_exits_two(self, tmp_path, capsys):
        data = code_dict(fixtures()["J7half"])
        data["basis"][0][0] = {"sign": 1, "radicand_num": "1", "radicand_den": "0"}
        path = tmp_path / "zero_den.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path), "--t", "1"]) == 2
        _assert_one_error_line(capsys)

    @staticmethod
    def _verify_in_subprocess(tmp_path, radicand_num: str):
        """``verify --t 1`` on J7half with its first radicand replaced; a timeout bounds a hang."""
        path = tmp_path / "hard.json"
        path.write_text(json.dumps(_j7half_with(radicand_num=radicand_num)))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        script = "import sys; from aecodes import cli; sys.exit(cli.main(sys.argv[1:]))"
        return subprocess.run(
            [sys.executable, "-c", script, "verify", str(path), "--t", "1"],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_two_large_prime_radicand_gets_a_verdict(self, tmp_path):
        # Two 19-digit prime factors stay whole in one kernel: the zero test refines
        # cofactors to a coprime base instead of factoring them, so the changed code
        # is decided, and fails, rather than exiting 2 on a factoring budget.
        proc = self._verify_in_subprocess(tmp_path, str(1000000000000000003 * 2000000000000000057))
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["report"]["pass"] is False

    def test_four_thousand_digit_radicand_gets_a_verdict(self, tmp_path):
        # 10^4000 - 1, below Python's 4,300-digit limit: its cofactor after trial
        # division has about 13,000 bits and is never searched for factors; its
        # perfect-power test mostly ends at residues mod primes below 1000.
        proc = self._verify_in_subprocess(tmp_path, "9" * 4000)
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["report"]["pass"] is False

    @pytest.mark.parametrize(
        "data",
        [
            {"kind": "AE", "two_J": 7, "label": "", "basis": 5},
            [{"kind": "AE", "two_J": 7, "label": "", "basis": []}],
            {"kind": "AE", "two_J": 7, "label": "", "basis": [7]},
            _j7half_with(radicand_num=3.9),
            _j7half_with(radicand_den=10.0),
            _j7half_with(sign=True),
            _j7half_with(two_J=7.9),
            _j7half_with(two_J=True),
            _j7half_with(label=5),
            _j7half_with(label=[1]),
        ],
        ids=[
            "basis-not-list",
            "top-level-list",
            "vector-not-list",
            "float-radicand-num",
            "float-radicand-den",
            "bool-sign",
            "float-two-j",
            "bool-two-j",
            "int-label",
            "list-label",
        ],
    )
    def test_malformed_schema_exits_two(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path), "--t", "1"]) == 2
        _assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        ("key", "value"),
        [
            ("two_J", "7.0"),
            ("radicand_num", "1.5"),
            ("radicand_num", "1" * 5000),
            ("radicand_num", "1_0"),
            ("two_J", " 7"),
            ("two_J", "\uff17"),
        ],
        ids=[
            "two-j",
            "radicand-num",
            "radicand-num-past-digit-limit",
            "digit-separator",
            "leading-space",
            "fullwidth-digit",
        ],
    )
    def test_bad_integer_string_names_its_field(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_j7half_with(**{key: value})))
        assert main(["verify", str(path), "--t", "1"]) == 2
        err = _assert_one_error_line(capsys)
        assert f"{key} must be an integer or a decimal-integer string" in err
        if len(value) > sys.get_int_max_str_digits():
            assert f"at most {sys.get_int_max_str_digits()} digits" in err and value not in err
        else:
            assert repr(value) in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--t", "1"],
            ["map", "--via", "e", "--out", "out.json"],
            ["covariance", "--group", "2i"],
        ],
        ids=["verify", "map", "covariance"],
    )
    def test_deeply_nested_file_exits_two(self, tmp_path, capsys, monkeypatch, argv):
        # 1,500 nested arrays make json.loads raise RecursionError, not a schema error
        monkeypatch.chdir(tmp_path)
        Path("deep.json").write_text("[" * 1500 + "]" * 1500)
        assert main([argv[0], "deep.json", *argv[1:]]) == 2
        _assert_one_error_line(capsys)
        assert not Path("out.json").exists()

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--bogus"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestManifest:
    def test_reproducible_byte_for_byte(self, tmp_path, capsys):
        path = str(tmp_path / "a.json")
        args = [
            "construct", "--g", "2", "--m", "1", "--delta", "2",
            "--epsilon", "-1", "--kind", "ae", "--out", path,
        ]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


class TestOtherCommands:
    def test_errors_counts(self, capsys):
        status, report = run(capsys, "errors", "--two-j", "7", "--t", "1")
        assert status == 0 and report["count"] == 10
        status, report = run(capsys, "errors", "--two-j", "7", "--t", "1", "--spin")
        assert status == 0 and report["count"] == 4

    def test_errors_amplitudes_exact(self, capsys):
        _, report = run(capsys, "errors", "--two-j", "2", "--t", "1")
        identity = next(
            op for op in report["operators"]
            if (op["r"], op["delta_J"], op["delta_m"]) == (0, 0, 0)
        )
        assert all(e["amplitude"]["sign"] == 1 for e in identity["entries"])

    def test_cg_value(self, capsys):
        status, report = run(
            capsys,
            "cg", "--j1", "1/2", "--m1", "1/2", "--j2", "1/2", "--m2=-1/2",
            "--J", "1", "--M", "0",
        )
        assert status == 0
        assert report["value"] == {"sign": 1, "radicand_num": "1", "radicand_den": "2"}
        assert report["decimal"].startswith("0.7071067811865475")

    def test_map_preserves_coefficients(self, tmp_path, capsys):
        src = str(tmp_path / "pi.json")
        dst = str(tmp_path / "ae.json")
        run(
            capsys,
            "construct", "--g", "2", "--m", "1", "--delta", "2",
            "--epsilon", "-1", "--kind", "pi", "--out", src,
        )
        status, _ = run(capsys, "map", src, "--via", "e", "--out", dst)
        assert status == 0
        assert cli._load_code(dst)[0].basis == cli._load_code(src)[0].basis

    def test_map_wrong_kind_exits_two(self, tmp_path, capsys):
        path = str(tmp_path / "ae.json")
        fixtures()["J7half"].save(path)
        # each map names itself, f too, though it is h followed by e
        for via, wants in (("e", "PI"), ("h", "SPIN"), ("f", "SPIN")):
            status = main(["map", path, "--via", via, "--out", str(tmp_path / "x.json")])
            assert status == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: map {via} expects a {wants} code, got AE\n"

    def test_search_writes_codes_and_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "found"
        status, report = run(
            capsys,
            "search", "--n", "9", "--t", "1", "--max-size", "2",
            "--limit", "1", "--out", str(out_dir),
        )
        assert status == 0 and report["found"] == 1
        entry = report["results"][0]
        assert entry["x"] == {"0": "1/4", "6": "3/4"}
        assert entry["verdicts"] == {"kl_correct": True, "cross_validate": True}
        code, _ = cli._load_code(out_dir / "code_000.json")
        assert code.two_J == 9
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["found"] == 1

    def test_search_without_results_writes_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "none"
        status, report = run(
            capsys, "search", "--n", "14", "--t", "2", "--out", str(out_dir)
        )
        assert status == 0 and report["found"] == 0
        assert json.loads((out_dir / "summary.json").read_text()) == report

    def test_search_summary_is_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["search", "--n", "12", "--t", "1", "--max-size", "3", "--out", "found"]) == 0
        out = capsys.readouterr().out.encode()
        assert (tmp_path / "found" / "summary.json").read_bytes() == out
        digest = "5712fac8ed221b4ac47b78084085bdd316af99fcfedbdbe923af983871d22d7e"
        assert hashlib.sha256(out).hexdigest() == digest
        assert len(list((tmp_path / "found").iterdir())) == 81

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (
                ["--n", "9", "--t", "1"],
                "82a75073e5b93d4dbf077b1542d28af2bbe8d5a051d675740fa2da42becc93f9",
            ),
            (
                ["--n", "12", "--t", "1", "--counter-symmetric"],
                "01f464910a47dcb46832bcb6dc29f321f2bfe002c59eedadde7631acb9653b1d",
            ),
            (
                ["--n", "13", "--t", "2", "--max-size", "3"],
                "7a74b9004bb868edc10db393246987283420c18f486aa32fc3abba29f467727e",
            ),
        ],
        ids=["9-1-2", "12-1-2-counter-symmetric", "13-2-3"],
    )
    def test_search_stdout_pinned(self, capsys, flags, digest):
        assert main(["search", *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_search_falsified_staggering_exits_three(self, tmp_path, capsys, monkeypatch):
        failing = type("Report", (), {"passed": False})()
        monkeypatch.setattr(search, "check_kl_correct", lambda code, eset: failing)
        out_dir = tmp_path / "found"
        status = main(["search", "--n", "9", "--t", "1", "--out", str(out_dir)])
        assert status == cli.EXIT_FALSIFIED == 3
        _assert_one_error_line(capsys)
        assert not out_dir.exists()

    def test_search_guard_catches_a_moment_mismatch(self, tmp_path, capsys, monkeypatch):
        # The real check_kl_correct, fed a vertex whose side-0 mass moves between
        # two of its indices: still normalized, but the first moments differ.
        def vertex(s0, s1, t, lex_min_vertex=search._lex_min_vertex):
            v = lex_min_vertex(s0, s1, t)
            if v is not None:
                i, k = [p for p, x in enumerate(v[: len(s0)]) if x][:2]
                eps = min(v[i], v[k]) / 2
                v[i], v[k] = v[i] + eps, v[k] - eps
            return v

        monkeypatch.setattr(search, "_lex_min_vertex", vertex)
        with pytest.raises(StaggeringFailure):
            enumerate_and_search(9, 1, 2)
        out_dir = tmp_path / "found"
        status = main(["search", "--n", "9", "--t", "1", "--out", str(out_dir)])
        assert status == cli.EXIT_FALSIFIED
        _assert_one_error_line(capsys)
        assert not out_dir.exists()

    def test_covariance_cli(self, tmp_path, capsys):
        path = str(tmp_path / "q11.json")
        fixtures()["J11half"].save(path)
        status, report = run(
            capsys, "covariance", path, "--group", "bd", "--b", "4", "--bits", "200"
        )
        assert status == 0 and report["report"]["pass"] is True

    def test_covariance_failure_exits_one(self, tmp_path, capsys):
        path = str(tmp_path / "q7.json")
        fixtures()["J7half"].save(path)
        status, report = run(
            capsys, "covariance", path, "--group", "bd", "--b", "4", "--bits", "200"
        )
        assert status == 1

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_malformed_tolerance_exits_two(self, tmp_path, capsys, tol):
        path = str(tmp_path / "q7.json")
        fixtures()["J7half"].save(path)
        assert main(["covariance", path, "--group", "2i", "--tol", tol]) == 2
        _assert_one_error_line(capsys)

    def test_precision_bounds(self, tmp_path, monkeypatch):
        path = str(tmp_path / "q7.json")
        fixtures()["J7half"].save(path)
        monkeypatch.setattr(covariance, "check_covariance", _start)
        for bits in (53, cli.MAX_PRECISION_BITS):
            with pytest.raises(_Started) as started:
                main(["covariance", path, "--group", "2i", "--bits", str(bits)])
            assert started.value.args[3] == bits  # check_covariance(code, group, tol, bits)

    @pytest.mark.parametrize("bits", ["0", "52", "4097", "100000000"])
    def test_bits_out_of_range_exits_two(self, tmp_path, capsys, monkeypatch, bits):
        path = str(tmp_path / "q7.json")
        fixtures()["J7half"].save(path)
        monkeypatch.setattr(covariance, "check_covariance", _must_not_run)
        status = main(["covariance", path, "--group", "2i", "--bits", bits])
        assert status == 2
        _assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "code, flags, status, digest",
        [
            (
                "family86",
                ["--t", "4"],
                0,
                "195759126ef6af94070319f5d4e1e613e0f439034b5210deeb181d1a6d2b3b69",
            ),
            (
                "J7half",
                ["--t", "2"],
                1,
                "643fb58fbd341be1e69f483bed5fa17d9d74cae3d9d92af19cdeca650112c725",
            ),
            (
                "J7half",
                ["--t", "2", "--mode", "conditions"],
                1,
                "07099141467cc092b05e0bbb023c1999a8034476dc624ed9a1c8822160be3e86",
            ),
            (
                "family86",
                ["--t", "4", "--mode", "detect"],
                0,
                "879bdc3adfbb2cc44a9128e402a54ed45c7f9dfb280494f6310746e0ce572026",
            ),
            (
                "J7half",
                ["--t", "3", "--mode", "detect"],
                1,
                "164b8884037a6ec4d2ff5b743dd66afc08f60a42205065db82ce216e8ed95bb8",
            ),
            (
                "J7half",
                ["--t", "1", "--mode", "cross"],
                0,
                "26e84f224c87f6710980f68dbf7dbc47307948b7172402a293fb74cb764d10a9",
            ),
        ],
        ids=[
            "86-4-correct-gram",
            "7-2-correct-residuals",
            "7-2-conditions-residuals",
            "86-4-detect-gram",
            "7-3-detect-residuals",
            "7-1-cross",
        ],
    )
    def test_verify_stdout_pinned(self, tmp_path, capsys, monkeypatch, code, flags, status, digest):
        # The gram decimals of a passing code and the residual decimals of a
        # failing one; a relative path keeps the manifest's bytes fixed.
        monkeypatch.chdir(tmp_path)
        if code == "family86":
            construct_ae_gmde(GmdeParams(8, 4, 21, -1)).save("family86.json")
        else:
            fixtures()[code].save(f"{code}.json")
        assert main(["verify", f"{code}.json", *flags]) == status
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_verify_stdout_ignores_precision_env(self, tmp_path, capsys, monkeypatch):
        # verify and cg render their decimals at a fixed 200 bits, as their manifests record
        # no precision, so a precision in the environment leaves their bytes as they are
        path = str(tmp_path / "q7.json")
        fixtures()["J7half"].save(path)
        cg = ["cg", "--j1=1/2", "--m1=1/2", "--j2=1/2", "--m2=-1/2", "--J=1", "--M=0"]
        for argv in (["verify", path, "--t", "1"], cg):
            monkeypatch.delenv("AECODES_PRECISION_BITS", raising=False)
            assert main(argv) == 0
            unset = capsys.readouterr().out
            assert '"decimal"' in unset
            monkeypatch.setenv("AECODES_PRECISION_BITS", "64")
            assert main(argv) == 0
            assert capsys.readouterr().out == unset

    def test_order_bounds_admit_limits(self, capsys, monkeypatch):
        assert cli.MAX_TWO_J >= 243 and cli.MAX_T >= 4
        for name in ("build_ae_error_set", "build_spin_error_set"):
            monkeypatch.setattr(cli, name, lambda two_j, t: ErrorSet(t, ()))
        for spin in ([], ["--spin"]):
            argv = ["errors", "--two-j", str(cli.MAX_TWO_J), "--t", str(cli.MAX_T), *spin]
            status, report = run(capsys, *argv)
            assert status == 0 and report["t"] == cli.MAX_T

    @pytest.mark.parametrize(
        "two_j, t",
        [(cli.MAX_TWO_J + 1, 1), (10**9, 1), (-1, 0), (9, cli.MAX_T + 1), (9, -1)],
    )
    def test_errors_out_of_range_exits_two(self, capsys, monkeypatch, two_j, t):
        monkeypatch.setattr(cli, "build_ae_error_set", _must_not_run)
        monkeypatch.setattr(cli, "build_spin_error_set", _must_not_run)
        for spin in ([], ["--spin"]):
            assert main(["errors", f"--two-j={two_j}", f"--t={t}", *spin]) == 2
            _assert_one_error_line(capsys)

    @pytest.mark.parametrize("t", [cli.MAX_T + 1, 10**9, -1])
    def test_verify_order_out_of_range_exits_two(self, tmp_path, capsys, monkeypatch, t):
        path = str(tmp_path / "q7.json")
        fixtures()["J7half"].save(path)
        for name in ("build_ae_error_set", "check_conditions", "cross_validate"):
            monkeypatch.setattr(cli, name, _must_not_run)
        for mode in ("correct", "detect", "conditions", "cross"):
            assert main(["verify", path, f"--t={t}", "--mode", mode]) == 2
            _assert_one_error_line(capsys)

    @staticmethod
    def _code_file(tmp_path, two_j: int, kind: str) -> str:
        """A one-vector code file of spin two_j / 2: |j = 0>."""
        vec = [SqrtRational.from_rational(1)] + [SqrtRational.zero()] * two_j
        path = str(tmp_path / f"{kind}{two_j}.json")
        CodeBasis(CodeKind(kind), two_j, (tuple(vec),)).save(path)
        return path

    def test_loaded_spin_out_of_range_exits_two(self, tmp_path, capsys, monkeypatch):
        path = self._code_file(tmp_path, cli.MAX_TWO_J + 1, "PI")
        for name in (
            "build_ae_error_set", "check_kl_correct", "check_kl_detect", "check_conditions",
            "cross_validate", "map_e", "map_h", "map_f",
        ):
            monkeypatch.setattr(cli, name, _must_not_run)
        for name in (
            "check_covariance", "binary_dihedral_group", "binary_octahedral_group",
            "binary_icosahedral_group",
        ):
            monkeypatch.setattr(covariance, name, _must_not_run)
        out = str(tmp_path / "out.json")
        for argv in (
            *(["verify", path, "--t", "1", "--mode", mode] for mode in ("correct", "detect")),
            *(["verify", path, "--t", "1", "--mode", mode] for mode in ("conditions", "cross")),
            *(["map", path, "--via", via, "--out", out] for via in ("e", "h", "f")),
            *(["covariance", path, "--group", group] for group in ("bd", "2o", "2i")),
        ):
            assert main(argv) == 2
            _assert_one_error_line(capsys)
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "group, b, order, bits",
        [("bd", 4, 32, 200), ("bd", 300, 2400, 200), ("2o", 4, 48, 200), ("2i", 4, 120, 200),
         ("2i", 4, 120, 4096)],
    )
    def test_full_group_work_out_of_range_exits_two(
        self, tmp_path, capsys, monkeypatch, group, b, order, bits
    ):
        # the least spin over the bound exits 2 before any element is checked; one less starts work
        monkeypatch.setattr(covariance, "code_columns", _start)
        work = [order * (n + 1) ** 2 * (bits + n + 32) for n in range(cli.MAX_TWO_J + 1)]
        n = next(n for n, w in enumerate(work) if w > covariance.MAX_FULL_GROUP_WORK)
        argv = ["--group", group, "--b", str(b), "--bits", str(bits)]
        over = self._code_file(tmp_path, n, "AE")
        assert main(["covariance", over, *argv, "--full-group"]) == 2
        _assert_one_error_line(capsys)
        for path, flags in ((over, []), (self._code_file(tmp_path, n - 1, "AE"), ["--full-group"])):
            with pytest.raises(_Started):
                main(["covariance", path, *argv, *flags])

    @pytest.mark.parametrize("b", [513, 1383])
    def test_full_group_closure_over_cap_exits_two(self, tmp_path, capsys, monkeypatch, b):
        # BD's closure has 8b elements: past the cap at b = 513 on any spin, while b = 512 starts
        monkeypatch.setattr(covariance, "code_columns", _start)
        path = self._code_file(tmp_path, 1, "AE")
        assert main(["covariance", path, "--group", "bd", "--b", str(b), "--full-group"]) == 2
        _assert_one_error_line(capsys)
        with pytest.raises(_Started):
            main(["covariance", path, "--group", "bd", "--b", "512", "--full-group"])

    def test_loaded_spin_bound_admits_limit(self, tmp_path, capsys):
        ae = self._code_file(tmp_path, cli.MAX_TWO_J, "AE")
        pi = self._code_file(tmp_path, cli.MAX_TWO_J, "PI")
        status, report = run(capsys, "verify", ae, "--t", "0")
        assert status == 0 and report["report"]["pass"]
        status, report = run(capsys, "map", pi, "--via", "e", "--out", str(tmp_path / "out.json"))
        assert status == 0 and report["kind_out"] == "AE"
        # iX maps |j = 0> to |j = 2J>, so the check runs and the code fails it
        status, report = run(capsys, "covariance", ae, "--group", "bd")
        assert status == 1 and report["report"]["per_generator"]["iX"].startswith("1.0")

    @pytest.mark.parametrize("position", range(6))
    @pytest.mark.parametrize(
        "value",
        [
            str(cli.MAX_TWO_J // 2 + 1), "-2000", "2001/2", "1/0", "1/3", "x", "1e10000000",
            "1_0", "１", " 1", "+1", "1.5",
        ],
    )
    def test_cg_label_out_of_range_exits_two(self, capsys, monkeypatch, position, value):
        monkeypatch.setattr(angular, "clebsch_gordan_t", _must_not_run)
        labels = ["1", "0", "1", "0", "1", "0"]
        labels[position] = value
        names = ("j1", "m1", "j2", "m2", "J", "M")
        assert main(["cg", *(f"--{k}={v}" for k, v in zip(names, labels))]) == 2
        _assert_one_error_line(capsys)

    def test_cg_bound_admits_limit(self, capsys):
        j = str(cli.MAX_TWO_J // 2)
        argv = ["--j1", j, "--m1=-1", "--j2", j, "--m2", "1", "--J", j, "--M", "0"]
        status, report = run(capsys, "cg", *argv)
        assert status == 0 and report["manifest"]["verdicts"]["sign"] != 0

    def test_cg_racah_sum_with_large_composite_factor(self, capsys):
        # The Racah sum has a composite factor 288244105768484777466276392194453 whose
        # prime factors all lie above 1000; only the ratio of binomials is split.
        argv = ["--j1", "174", "--m1=-99", "--j2", "371/2", "--m2=-23/2", "--J", "493/2"]
        status, report = run(capsys, "cg", *argv, "--M=-221/2")
        expected = clebsch_gordan_t(348, -198, 371, -23, 493, -221)
        assert status == 0 and report["value"] == sqrt_rational_to_json(expected)

    @pytest.mark.parametrize(
        "g, m, delta", [(1, cli.MAX_TWO_J // 2, 0), (100000, 100000, 4), (0, 0, cli.MAX_TWO_J)]
    )
    def test_construct_length_out_of_range_exits_two(
        self, tmp_path, capsys, monkeypatch, g, m, delta
    ):
        monkeypatch.setattr(cli, "construct_ae_gmde", _must_not_run)
        monkeypatch.setattr(cli, "construct_pi_gmde", _must_not_run)
        out = str(tmp_path / "q.json")
        for kind in ("ae", "pi"):
            argv = ["construct", f"--g={g}", f"--m={m}", f"--delta={delta}", "--epsilon=1"]
            assert main([*argv, "--kind", kind, "--out", out]) == 2
            _assert_one_error_line(capsys)
        assert not os.path.exists(out)

    def test_construct_bound_admits_limit(self, tmp_path, capsys):
        # n = 2gm + delta + 1 = MAX_TWO_J
        g = (cli.MAX_TWO_J - 2) // 2
        status, report = run(
            capsys, "construct", "--g", str(g), "--m", "1", "--delta", "1",
            "--epsilon", "1", "--out", str(tmp_path / "q.json"),
        )
        assert status == 0 and report["code"]["two_J"] == cli.MAX_TWO_J

    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-size", "0"],
            ["--max-size", "-3"],
            ["--max-size", "12"],
            ["--limit", "-1"],
            ["--t", "7"],
            ["--t", "-1"],
            ["--n", "2"],
            ["--n", str(cli.MAX_TWO_J + 1)],
            ["--n", "40", "--max-size", "2"],
            ["--n", "22", "--max-size", "3"],
            ["--n", "512", "--t", "0", "--max-size", "513"],
        ],
        ids=[
            "size-zero",
            "size-negative",
            "size-over-n-plus-one",
            "limit-negative",
            "t-over-max",
            "t-negative",
            "n-under-2t-plus-one",
            "n-over-max",
            "pairs-40-1-2",
            "pairs-22-1-3",
            "pairs-512-0-513",
        ],
    )
    def test_search_out_of_range_exits_two(self, capsys, monkeypatch, flags):
        monkeypatch.setattr(search, "enumerate_and_search", _must_not_run)
        argv = {"--n": "10", "--t": "1", "--max-size": "2"}
        argv.update(zip(flags[::2], flags[1::2]))
        assert main(["search", *(f"{k}={v}" for k, v in argv.items())]) == 2
        _assert_one_error_line(capsys)

    def test_search_bound_admits_limit(self, capsys, monkeypatch):
        # the largest t = 1, size-2 search under the pair limit runs; one more index does not
        n = max(n for n in range(3, 100) if support_pair_count(n, 1, 2) <= cli.MAX_SEARCH_PAIRS)
        monkeypatch.setattr(search, "enumerate_and_search", lambda *args, **kwargs: [])
        status, report = run(capsys, "search", "--n", str(n), "--t", "1", "--limit", "0")
        assert status == 0 and report["found"] == 0
        # 37,720 staggered pairs, though 537,289 ordered pairs of spaced supports
        status, report = run(capsys, "search", "--n", "19", "--t", "1", "--max-size", "3")
        assert status == 0 and report["found"] == 0
        monkeypatch.setattr(search, "enumerate_and_search", _must_not_run)
        assert main(["search", "--n", str(n + 1), "--t", "1"]) == 2
        _assert_one_error_line(capsys)

    def test_identities_pass(self, capsys):
        status, report = run(capsys, "identities")
        assert status == 0
        assert report["report"]["all_passed"] is True


def _main_output(argv) -> tuple[int, str, str]:
    """Exit status (a SystemExit's code included), stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


class TestParserReuse:
    # One argparse tree serves every main() call in a process; no call's
    # flags or defaults may leak into the next one's report.
    @pytest.mark.parametrize(
        "calls, statuses",
        [
            (
                [
                    ["errors", "--two-j", "9", "--t", "2", "--spin"],
                    ["errors", "--two-j", "9", "--t", "2"],
                ],
                [0, 0],
            ),
            (
                [
                    ["verify", "J7half.json", "--t", "1", "--mode", "conditions", "--t-prime", "2"],
                    ["verify", "J7half.json", "--t", "1"],
                    ["verify", "J7half.json", "--t", "1", "--mode", "conditions"],
                ],
                [0, 0, 0],
            ),
            (
                [
                    ["verify", "--bogus"],
                    ["errors", "--two-j", "5", "--t", "1"],
                    ["verify", "--t", "1"],
                    ["verify", "J7half.json", "--t", "1", "--mode", "detect"],
                ],
                [2, 0, 2, 0],
            ),
        ],
        ids=["errors-spin-then-ae", "verify-t-prime-then-default", "usage-error-then-valid"],
    )
    def test_each_call_matches_a_lone_first_call(self, tmp_path, monkeypatch, calls, statuses):
        monkeypatch.chdir(tmp_path)
        fixtures()["J7half"].save("J7half.json")
        lone = []
        for argv in calls:
            cli.build_parser.cache_clear()
            lone.append(_main_output(argv))
        assert [status for status, _, _ in lone] == statuses
        cli.build_parser.cache_clear()
        assert [_main_output(argv) for argv in calls] == lone
        assert cli.build_parser.cache_info().misses == 1


# Valid command lines for the input fuzz, all cheap to run, and values to
# put in place of their tokens: valid ones, ones of the wrong type or range,
# and ones argparse or the loaders must reject.  No value makes a spin, an
# order or a search that takes long to decide.
_FUZZ_CALLS = (
    "errors --two-j 7 --t 1",
    "errors --two-j 13 --t 2 --spin",
    "verify code.json --t 1",
    "verify code.json --t 1 --mode detect",
    "verify code.json --t 1 --mode conditions --t-prime 2",
    "verify code.json --t 1 --mode cross",
    "cg --j1 1 --m1 0 --j2 1/2 --m2 1/2 --J 3/2 --M 1/2",
    "construct --g 2 --m 1 --delta 2 --epsilon -1 --kind pi --out out.json",
    "map code.json --via e --out mapped.json",
    "search --n 9 --t 1 --max-size 2 --limit 1",
    "covariance code.json --group bd --b 4 --bits 64",
)
_FUZZ_TOKENS = st.sampled_from(
    ["-1", "0", "1", "2", "3", "7", "513", "1e3", "x", "", "1/2", "1/3", "-1/2", "nan", "inf",
     "correct", "conditions", "e", "h", "f", "2o", "2i", "pi", "--spin", "--bogus",
     "code.json", "missing.json", "missing/out.json", "--t", "--mode"]
)
_FILE_VALUES = st.sampled_from(
    [None, True, 7, 7.5, -1, 513, "7", "AE", "PI", "SPIN", "x", "", "0", "-3", "12", "10" * 3,
     [], {}, [[]], [[{}]]]
)


@st.composite
def _fuzz_call(draw):
    """A valid command line with up to two tokens replaced, dropped or added."""
    argv = draw(st.sampled_from(_FUZZ_CALLS)).split()
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(1, len(argv)))
        action = draw(st.sampled_from(["replace", "drop", "insert"]))
        if action == "insert" or i == len(argv):
            argv.insert(i, draw(_FUZZ_TOKENS))
        elif action == "replace":
            argv[i] = draw(_FUZZ_TOKENS)
        else:
            del argv[i]
    return argv


@st.composite
def _fuzz_code_file(draw):
    """The J7half or J11half code file, perhaps with one field set, dropped or added."""
    data = code_dict(fixtures()[draw(st.sampled_from(["J7half", "J11half"]))])
    if draw(st.booleans()):
        coeff = data["basis"][draw(st.integers(0, 1))][draw(st.integers(0, 3))]
        target = draw(st.sampled_from([data, coeff]))
        key = draw(st.sampled_from(sorted(target) + ["extra"]))
        if draw(st.integers(0, 3)) == 0:
            target.pop(key, None)
        else:
            target[key] = draw(_FILE_VALUES)
    return data


@settings(max_examples=200, deadline=None)
@given(_fuzz_call(), _fuzz_code_file())
def test_fuzzed_calls_exit_with_a_status_and_no_traceback(tmp_path_factory, argv, data):
    # Every in-process run ends with status 0-3, or with argparse's
    # SystemExit 2 and its usage line; an exit 2 of aecodes' own is one
    # `error:` line.  An exception that escapes main fails the test.
    work = tmp_path_factory.mktemp("fuzz")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        Path("code.json").write_text(json.dumps(data))
        status, out, err = _main_output(argv)
    finally:
        os.chdir(cwd)
    assert status in (0, 1, 2, 3), (argv, status)
    assert "Traceback" not in err
    if status == 2 and not out:
        assert err.startswith(("usage:", "error:")), (argv, err)
        if err.startswith("error:"):
            assert err.count("\n") == 1, (argv, err)


# Leaves of every JSON type, with the awkward cases named explicitly.
_JSON_LEAVES = st.one_of(
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
    st.text(st.characters(min_codepoint=0x80)),
    st.integers(),
    st.integers(min_value=-(10**1000), max_value=10**1000),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([-0.0, 1e-300, float("nan"), float("inf")]),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_JSON_VALUES, st.just({}), st.just([]), st.just({"a": [], "b": {}})))
def test_to_json_matches_indented_json_dumps(value):
    assert to_json(value) == json.dumps(value, indent=2, sort_keys=True)


_BODIES = st.dictionaries(
    st.text().filter(lambda key: key != "manifest"), _JSON_VALUES, max_size=4
)


def _list_paths(d: dict, path=()):
    """The key path of each list value of ``d``, at any depth of dicts."""
    for key, value in d.items():
        if isinstance(value, dict):
            yield from _list_paths(value, path + (key,))
        elif isinstance(value, list):
            yield path + (key,)


def _streamed(d: dict, chosen, items: list, indent: str = "\n", path=()) -> dict:
    """``d`` with each list value whose path is in ``chosen`` made an iterator of its items'
    ``to_json`` texts, at the depth ``write_json`` lays them out; the texts go to ``items`` in
    the order ``write_json`` writes them."""
    out = {}
    for key, value in sorted(d.items()):
        if isinstance(value, dict):
            value = _streamed(value, chosen, items, indent + "  ", path + (key,))
        elif path + (key,) in chosen:
            texts = [to_json(x, indent + "    ") for x in value]
            items += texts
            value = iter(texts)
        out[key] = value
    return out


def _draw_streamed(data, d: dict) -> set:
    paths = sorted(_list_paths(d))
    return data.draw(st.sets(st.sampled_from(paths)) if paths else st.just(set()))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_BODIES, st.just({"a": [], "b": {"c": [], "d": [1, [2]]}})), st.data())
def test_write_json_matches_indented_json_dumps(d, data):
    # A drawn subset of the list values, empty ones included, are iterators of item texts.
    items: list[str] = []
    given_d = _streamed(d, _draw_streamed(data, d), items)
    pieces: list[str] = []
    write_json(given_d, pieces.append)
    assert "".join(pieces) == json.dumps(d, indent=2, sort_keys=True)
    # each item text arrives in a write of its own, the one after its separator
    assert [pieces[i + 1] for i, p in enumerate(pieces) if p.strip() in ("[", ",")] == items


@settings(max_examples=200, deadline=None)
@given(_BODIES, st.data())
def test_report_matches_indented_json_dumps(body, data):
    # Some list values are iterators of item texts, as KL reports and operator lists are.
    streamed = _draw_streamed(data, body)
    manifest = {
        "command": "cmd", "inputs": {"in.json": "ab"}, "parameters": {"t": 1, "x": None},
        "verdicts": {"pass": True}, "tool_version": __version__,
    }
    expected = json.dumps(body | {"manifest": manifest}, indent=2, sort_keys=True) + "\n"

    def args():  # each report consumes its iterators
        given_body = _streamed(body, streamed, [])
        return ("cmd", {"in.json": "ab"}, {"t": 1, "x": None}, {"pass": True}, given_body)

    buf, pieces = io.StringIO(), []
    with contextlib.redirect_stdout(buf):
        cli._report(*args())
    cli._report(*args(), write=pieces.append)
    assert buf.getvalue() == "".join(pieces) == expected
