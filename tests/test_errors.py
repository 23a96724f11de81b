"""Error operator sets: counts, amplitudes, application, sector structure."""

import hashlib
import json
from math import gcd

import pytest
import sympy

from aecodes.angular import cg_transition, clebsch_gordan_t
from aecodes.cli import main
from aecodes.codes import fixtures
from aecodes.errors import (
    ErrorOp,
    build_ae_error_set,
    build_spin_error_set,
    operator_texts,
)
from aecodes.exactnum import SqrtRational, sqrt_rational_to_json
from aecodes.jsonfmt import to_json, write_json
from oracles import amplitudes, apply, target_two_J


class TestCounts:
    def test_order_zero_is_identity_only(self):
        eset = build_ae_error_set(9, 0)
        assert len(eset.ops) == 1
        op = eset.ops[0]
        assert (op.r, op.delta_J, op.delta_m) == (0, 0, 0)
        assert all(amp == SqrtRational.from_rational(1) for amp in amplitudes(op).values())
        assert len(op.entries) == 10

    @pytest.mark.parametrize("two_J", [*range(1, 65), 255, 511, 512])
    def test_rank_zero_operator_is_exactly_the_identity(self, two_J):
        # the premise of cross_validate's docstring, by which search reports it from its KL guard
        op = build_ae_error_set(two_J, 0).ops[0]
        assert (op.r, op.delta_J, op.delta_m) == (0, 0, 0)
        assert amplitudes(op) == {j: SqrtRational.from_rational(1) for j in range(two_J + 1)}

    def test_order_one_count(self):
        assert len(build_ae_error_set(7, 1).ops) == 10

    def test_order_two_count(self):
        assert len(build_ae_error_set(21, 2).ops) == 35

    def test_spin_counts(self):
        assert len(build_spin_error_set(7, 0).ops) == 1
        assert len(build_spin_error_set(7, 1).ops) == 4
        assert len(build_spin_error_set(9, 2).ops) == 9

    def test_too_small_system_rejected(self):
        with pytest.raises(ValueError):
            build_ae_error_set(3, 2)
        with pytest.raises(ValueError):
            build_spin_error_set(1, 1)

    @pytest.mark.parametrize(
        ("two_J", "t", "message"),
        [
            (7, -1, "t must be nonnegative"),
            (-3, -1, "t must be nonnegative"),  # both rules broken: t's is checked first
            (7, 4, "two_J=7 too small for order t=4 (need two_J >= 2t)"),
        ],
    )
    def test_order_rule_messages(self, two_J, t, message):
        for build in (build_ae_error_set, build_spin_error_set):
            with pytest.raises(ValueError) as caught:
                build(two_J, t)
            assert str(caught.value) == message


class TestAmplitudes:
    def test_spin_ops_are_the_zero_shift_slice(self):
        ae = build_ae_error_set(9, 2)
        spin = build_spin_error_set(9, 2)
        ae_by_key = {(op.r, op.delta_J, op.delta_m): op for op in ae.ops}
        for op in spin.ops:
            twin = ae_by_key[(op.r, 0, op.delta_m)]
            assert twin.entries == op.entries

    def test_entries_match_transition_form(self):
        # substitutions a = t - delta_m, q = t + delta_J align the operator
        # amplitudes with the specialized coefficient C_{r,a}^q
        for two_J in (5, 8, 11, 15):
            for t in (1, 2):
                if two_J < 2 * t:
                    continue
                for op in build_ae_error_set(two_J, t).ops:
                    a = t - op.delta_m
                    q = t + op.delta_J
                    amps = amplitudes(op)
                    for j_src in range(two_J + 1):
                        amp = amps.get(j_src, SqrtRational.zero())
                        assert amp == cg_transition(two_J, t, op.r, a, q, j_src - a)

    @pytest.mark.parametrize("build", [build_ae_error_set, build_spin_error_set])
    def test_matches_general_clebsch_gordan(self, build):
        # The general Racah routine is independent of the operator builder; t up to 6
        # steps Hahn polynomials of degree up to 12 by their forward differences.
        cases = [(two_J, t) for two_J in range(41) for t in range(min(3, two_J // 2) + 1)]
        for two_J, t in cases + [(two_J, t) for two_J in (12, 13, 25) for t in (4, 5, 6)]:
            for op in build(two_J, t).ops:
                amps = amplitudes(op)
                for j in range(two_J + 1):
                    tm = 2 * j - two_J
                    expected = clebsch_gordan_t(
                        two_J, tm, 2 * op.r, 2 * op.delta_m,
                        target_two_J(op), tm + 2 * op.delta_m,
                    )
                    assert amps.get(j, SqrtRational.zero()) == expected, (op, j)

    def test_out_of_range_targets_absent(self):
        eset = build_ae_error_set(7, 1)
        raising = next(
            op for op in eset.ops if (op.r, op.delta_J, op.delta_m) == (1, 0, 1)
        )
        assert 7 not in raising.entries  # |J, J> cannot be raised within the sector


class TestStorage:
    # Entries are (num, den, kernel) triples read back through the trusted
    # SqrtRational._make, so the builder must keep its invariants itself.
    CASES = [(two_J, t) for two_J in range(41) for t in range(min(3, two_J // 2) + 1)]

    @pytest.mark.parametrize("build", [build_ae_error_set, build_spin_error_set])
    def test_entries_keep_the_sqrt_rational_invariants(self, build):
        kernels = set()
        for two_J, t in self.CASES + [(86, 4), (240, 2)]:
            for op in build(two_J, t).ops:
                for j, (num, den, k) in op.entries.items():
                    assert den > 0 and num != 0 and gcd(num, den) == 1, (op, j)
                    kernels.add(k)
        assert all(k > 0 and max(sympy.factorint(k).values(), default=1) == 1 for k in kernels)

    @pytest.mark.parametrize("build", [build_ae_error_set, build_spin_error_set])
    def test_writer_prints_what_the_serializer_writes(self, build):
        # sqrt_rational_to_json of each amplitude, through the generic writer, is an
        # independent route to the bytes the int writer prints.
        for two_J in range(21):
            for t in range(min(3, two_J // 2) + 1):
                ops = build(two_J, t).ops
                parts: list[str] = []
                write_json({"operators": operator_texts(ops)}, parts.append)
                expected = [
                    {
                        "delta_J": op.delta_J,
                        "delta_m": op.delta_m,
                        "entries": [
                            {"amplitude": sqrt_rational_to_json(a), "j": j, "two_m": 2 * j - two_J}
                            for j, a in sorted(amplitudes(op).items())
                        ],
                        "r": op.r,
                        "source_two_J": two_J,
                    }
                    for op in ops
                ]
                assert "".join(parts) == to_json({"operators": expected}), (two_J, t)


class TestApply:
    def test_identity_application(self):
        code = fixtures()["J7half"]
        identity = build_ae_error_set(7, 1).ops[0]
        assert apply(identity, code.basis[0]) == list(code.basis[0])

    def test_raising_top_state_clips_to_zero(self):
        from aecodes.codes import vector_from_entries

        vec = vector_from_entries(7, {7: SqrtRational.from_rational(1)})
        raising = next(
            op
            for op in build_ae_error_set(7, 1).ops
            if (op.r, op.delta_J, op.delta_m) == (1, 0, 1)
        )
        assert all(c.is_zero() for c in apply(raising, vec))

    def test_length_mismatch_rejected(self):
        op = build_ae_error_set(7, 1).ops[0]
        with pytest.raises(ValueError):
            apply(op, [SqrtRational.from_rational(1)] * 3)

    def test_target_sector_length(self):
        code = fixtures()["J7half"]
        lowering_sector = next(
            op
            for op in build_ae_error_set(7, 1).ops
            if (op.r, op.delta_J, op.delta_m) == (1, -1, 0)
        )
        image = apply(lowering_sector, code.basis[0])
        assert len(image) == 7 + 2 * (-1) + 1


class TestSectorOrthogonality:
    def test_different_shift_means_different_sector(self):
        for two_J in range(4, 16):
            for t in (1, 2):
                if two_J < 2 * t:
                    continue
                ops = build_ae_error_set(two_J, t).ops
                for a in ops:
                    for b in ops:
                        if a.delta_J != b.delta_J:
                            assert target_two_J(a) != target_two_J(b)


def _errors_stdout(capsys, two_J, t, kind):
    argv = ["errors", "--two-j", str(two_J), "--t", str(t)] + (["--spin"] if kind == "spin" else [])
    assert main(argv) == 0
    return capsys.readouterr().out


# SHA-256 of the sorted-key JSON of the report's operators, taken from the
# factorial-sum Clebsch-Gordan routine (the last three from the binomial-sum
# routine, when the operators still called it; the first eight, from the
# j-walk over every index and every delta_m, cover odd and even 2J at the
# highest order each admits, where few indices lie off the centre; the
# last two, at the CLI's admitted maximum 2J = 512 and t = 6, from the
# operators built as SqrtRational entries before they were stored as int
# triples); any rewrite of the amplitudes or of the report writer must
# reproduce these bytes.
OPERATOR_DIGESTS = {
    (0, 0, "ae"): "6faf2aad6faddb457399e1d7341dc37d218784eab4b6de81d4d11970fc14c662",
    (1, 0, "ae"): "304571702c72d69e0153f7231c0a164a4ec919eb2c685b3d0a0e6bc12f7b6189",
    (2, 1, "ae"): "53f8fe4d643c09104db1c76fa130f10417ab15baee1c6fc5d41bf15301dd4cd1",
    (9, 4, "ae"): "edb5032f1c19bca6d90a00894871f8906220a24ae1359fab754413747ee659cf",
    (12, 6, "ae"): "f62b655695f107f638e0461e92a50439dc840cb82ed9d794c3d0b29d29bfce58",
    (12, 6, "spin"): "4e4fcfc16a3ab38cacd715aa1df7aa731369d080df2de7b0a063b00fd13d3d38",
    (13, 5, "ae"): "d556e2aa9dd36015ba401529bc54e5c07babc5bfbabe38b890fef6b711c65f84",
    (13, 5, "spin"): "1fc34d9b9756d0e4c8526870501507059da521ea10d9ad176b075748a065845b",
    (21, 2, "ae"): "3cd676c89d3934a65c1e4e7d524252d1d0929c6e08f9ea7121174c941a89db6f",
    (21, 2, "spin"): "727a7f55ea7d2d259805dea7ee883b035069322c663374b5b5c4d54e3515d5ad",
    (27, 2, "ae"): "1ecc36f6c66ba360baf8add1b7136bff49af5dcacfc565af59389d3db73f99b4",
    (27, 2, "spin"): "ad382c0434c756c1950d1ee40833c6241828f383e9c28c48427b6c0f2897f491",
    (120, 3, "ae"): "55f27dc133731556c1247152ff4b48c8b0b069f6bc0b8d4144909f8f7af00df3",
    (120, 3, "spin"): "936dd3bada3a2dd9230da8bbd52721a55d3d93b2278ef1ed628877c3ca881ec4",
    (86, 4, "ae"): "145bda86fc3e523b65f16fd7252a36aa5fc530101121f00bdfb8d5baeb7da1f9",
    (240, 2, "ae"): "bd8766edbc3ada156be4407cfc7f19f19c210ef77ff1e7fc7ee6ad9af7f0a4fe",
    (240, 2, "spin"): "fb5f8751d2bf4a4ee3c433220881b97a049bef0c6552548e040b4fd665a33cb5",
    (512, 6, "ae"): "a962352ca796446473d53293f282cb27831f87804b7984be5b49a455b80f37f0",
    (512, 6, "spin"): "bd1150b1e5a50913c09064f868357e02fef704a3d2c1a7ceb956018f9ba79b22",
}


@pytest.mark.parametrize("two_J, t, kind", sorted(OPERATOR_DIGESTS))
def test_operator_bytes_pinned(capsys, two_J, t, kind):
    ops = json.loads(_errors_stdout(capsys, two_J, t, kind))["operators"]
    digest = hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()
    assert digest == OPERATOR_DIGESTS[two_J, t, kind]


@pytest.mark.parametrize("kind", ["ae", "spin"])
def test_report_text_is_sorted_indented_json(capsys, kind):
    # The operators array is written from a fixed template; its text must be
    # what json.dumps writes, from 2J = 0 up.
    for two_J in range(13):
        for t in range(min(3, two_J // 2) + 1):
            out = _errors_stdout(capsys, two_J, t, kind)
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", (two_J, t)


def test_empty_arrays_written_as_to_json_writes_them():
    # No operator of an error set is empty, but the writer must not depend on it.
    empty = ErrorOp(1, -1, 0, 2, {})
    for ops in ([], [empty], [empty, build_ae_error_set(2, 1).ops[0]]):
        parts: list[str] = []
        write_json({"operators": operator_texts(ops)}, parts.append)
        assert "".join(parts) == to_json(json.loads("".join(parts)))
