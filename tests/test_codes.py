"""Constructions, relabeling maps, fixtures, and the code file format."""

import itertools
import json
from fractions import Fraction

import pytest

from aecodes.cli import _load_code
from aecodes.codes import (
    CodeBasis,
    CodeKind,
    GmdeParams,
    _gmde_amplitudes,
    construct_ae_gmde,
    construct_pi_gmde,
    fixtures,
    map_e,
    map_f,
    map_h,
    vector_from_entries,
)
from aecodes.exactnum import SqrtRational, dot
from aecodes.klverify import _vectors, check_conditions
from aecodes.search import enumerate_and_search
from oracles import binom, code_dict


def sq(num, den):
    return SqrtRational.sqrt(Fraction(num, den))


def radicands(code):
    return {
        (i, j): c.radicand * c.sign
        for i, vec in enumerate(code.basis)
        for j, c in enumerate(vec)
        if not c.is_zero()
    }


class TestConstruction:
    def test_seven_qubit_example(self):
        code = construct_ae_gmde(GmdeParams(2, 1, 2, -1))
        assert code.two_J == 7 and code.kind is CodeKind.AE
        assert radicands(code) == {
            (0, 0): Fraction(3, 10),
            (0, 5): Fraction(7, 10),
            (1, 2): Fraction(7, 10),
            (1, 7): Fraction(-3, 10),
        }

    def test_order_two_example(self):
        code = construct_ae_gmde(GmdeParams(4, 2, 4, -1))
        assert code.two_J == 21
        values = radicands(code)
        assert values[(0, 0)] == Fraction(5, 68)
        assert values[(0, 8)] == Fraction(7, 12)
        assert values[(0, 17)] == Fraction(35, 102)
        assert values[(1, 4)] == Fraction(35, 102)
        assert values[(1, 13)] == Fraction(-7, 12)
        assert values[(1, 21)] == Fraction(-5, 68)

    def test_binary_dihedral_example(self):
        code = construct_ae_gmde(GmdeParams(3, 1, 4, 1))
        assert code.two_J == 11
        values = radicands(code)
        assert values[(0, 0)] == Fraction(5, 16)  # sqrt(5)/4
        assert values[(0, 8)] == Fraction(11, 16)  # sqrt(11)/4
        assert values[(1, 11)] == Fraction(5, 16)  # epsilon = +1 keeps the sign

    def test_sanity_sweep_orthonormal(self):
        for g in range(1, 6):
            for m in range(0, 4):
                for delta in range(0, 7):
                    for eps in (-1, 1):
                        code = construct_ae_gmde(GmdeParams(g, m, delta, eps))
                        report = check_conditions(code, 0, 0)
                        assert report.c1 and report.c2, (g, m, delta, eps)

    def test_m_zero_single_pulse(self):
        code = construct_ae_gmde(GmdeParams(3, 0, 4, -1))
        assert code.support(0) == (0,) and code.support(1) == (5,)
        report = check_conditions(code, 0, 0)
        assert report.c1 and report.c2

    def test_g_zero_rejected(self):
        with pytest.raises(ValueError):
            construct_ae_gmde(GmdeParams(0, 1, 2, -1))

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            GmdeParams(2, 1, 2, 0)

    def test_pi_equals_ae_through_map(self):
        for g in range(1, 6):
            for m in range(0, 4):
                for delta in range(0, 7):
                    for eps in (-1, 1):
                        p = GmdeParams(g, m, delta, eps)
                        assert map_e(construct_pi_gmde(p)).basis == construct_ae_gmde(p).basis


def binom_amplitudes(p: GmdeParams) -> list[Fraction]:
    """Oracle: (gamma b_l)^2 = C(n/2g, m) (n - 2gm)/(g(m+1)) C(m, l) / C(n/g - l, m+1)."""
    g, m, n = p.g, p.m, p.n
    gamma_sq = binom(Fraction(n, 2 * g), m) * Fraction(n - 2 * g * m, g * (m + 1))
    return [gamma_sq * binom(m, l) / binom(Fraction(n, g) - l, m + 1) for l in range(m + 1)]


class TestClosedFormAmplitudes:
    """``_gmde_amplitudes`` in ints against the generalized-binomial formula."""

    @staticmethod
    def check(p: GmdeParams) -> None:
        pairs = _gmde_amplitudes(p)
        assert all(isinstance(x, int) and x > 0 for pair in pairs for x in pair)
        assert [Fraction(num, den) for num, den in pairs] == binom_amplitudes(p), p

    def test_every_instance_up_to_n_60(self):
        # epsilon does not enter the amplitudes; g is capped at 60 when m = 0
        params = [
            GmdeParams(g, m, delta, -1)
            for g in range(1, 61)
            for m in range(0, 59 // (2 * g) + 1)
            for delta in range(0, 60 - 2 * g * m)
        ]
        assert len(params) > 3600 and max(p.n for p in params) == 60
        for p in params:
            self.check(p)

    @pytest.mark.parametrize(
        "g, m, delta", [(1, 255, 1), (2, 127, 3), (4, 63, 7), (5, 50, 10), (255, 1, 1), (128, 2, 0)]
    )
    def test_near_two_j_512(self, g, m, delta):
        p = GmdeParams(g, m, delta, 1)
        assert 510 <= p.n <= 513
        self.check(p)
        assert construct_ae_gmde(p).basis == construct_pi_gmde(p).basis

    def test_g_zero_still_raises(self):
        for p in (GmdeParams(0, 1, 2, -1), GmdeParams(0, 0, 0, 1)):
            for build in (_gmde_amplitudes, construct_ae_gmde, construct_pi_gmde):
                with pytest.raises(ValueError, match="g must be positive"):
                    build(p)


class TestMaps:
    def test_map_e_is_identity_on_coefficients(self):
        pi = construct_pi_gmde(GmdeParams(2, 1, 2, -1))
        ae = map_e(pi)
        assert ae.kind is CodeKind.AE and ae.basis == pi.basis

    def test_map_e_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            map_e(fixtures()["J7half"])

    def test_map_h_reverses(self):
        spin = fixtures()["J7half"].with_kind(CodeKind.SPIN)
        pi = map_h(spin)
        assert pi.kind is CodeKind.PI
        for orig, mapped in zip(spin.basis, pi.basis):
            assert tuple(reversed(orig)) == mapped

    def test_map_h_top_state(self):
        n = 6
        spin = CodeBasis(
            CodeKind.SPIN,
            n,
            (vector_from_entries(n, {n: SqrtRational.from_rational(1)}),),
        )
        assert map_h(spin).support(0) == (0,)

    def test_map_h_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            map_h(construct_pi_gmde(GmdeParams(2, 1, 2, -1)))

    def test_map_f_reverses_in_m(self):
        spin = fixtures()["J11half"].with_kind(CodeKind.SPIN)
        ae = map_f(spin)
        assert ae.kind is CodeKind.AE
        for orig, mapped in zip(spin.basis, ae.basis):
            assert tuple(reversed(orig)) == mapped

    def test_map_f_is_involution(self):
        for name in ("J7half", "J21half", "J27half", "J11half"):
            spin = fixtures()[name].with_kind(CodeKind.SPIN)
            twice = map_f(map_f(spin).with_kind(CodeKind.SPIN))
            assert twice.basis == spin.basis

    def test_map_f_preserves_gram(self):
        spin = fixtures()["J7half"].with_kind(CodeKind.SPIN)
        ae = map_f(spin)
        before, after = _vectors(spin), _vectors(ae)
        for i in range(2):
            for k in range(2):
                assert dot(before[i], before[k]) == dot(after[i], after[k])


class TestFixtures:
    def test_all_unit_norm_orthogonal(self):
        for code in fixtures().values():
            report = check_conditions(code, 0, 0)
            assert report.c1 and report.c2

    def test_j27half_third_vector(self):
        c2 = fixtures()["J27half"].basis[2]
        assert c2[6] == sq(6, 16)  # m = -15/2
        assert c2[18] == sq(10, 16)  # m = 9/2

    def test_j7half_matches_construction(self):
        assert fixtures()["J7half"].basis == construct_ae_gmde(GmdeParams(2, 1, 2, -1)).basis

    def test_j21half_matches_construction(self):
        assert fixtures()["J21half"].basis == construct_ae_gmde(GmdeParams(4, 2, 4, -1)).basis

    def test_j11half_matches_construction(self):
        assert fixtures()["J11half"].basis == construct_ae_gmde(GmdeParams(3, 1, 4, 1)).basis

    def test_j27half_dimensions(self):
        code = fixtures()["J27half"]
        assert code.dim == 4 and code.two_J == 27


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        for code in fixtures().values():
            path = tmp_path / f"{code.label}.json"
            code.save(path)
            loaded, _ = _load_code(path)
            assert loaded == code

    def test_file_is_indented_sorted_json(self, tmp_path):
        # save writes the text itself, a coefficient at a time, not through code_dict
        codes = list(fixtures().values()) + [r.code for r in enumerate_and_search(9, 1, 2)]
        labels = ("J21half \u00bd", "", 'quote " backslash \\ newline \n []')
        for code, kind, label in itertools.product(codes, CodeKind, labels):
            code = code.with_kind(kind, label=label)
            path = tmp_path / "q.json"
            code.save(path)
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(code_dict(code), indent=2, sort_keys=True) + "\n"

    def test_dict_shape(self):
        d = code_dict(fixtures()["J7half"])
        assert d["kind"] == "AE" and d["two_J"] == 7
        entry = d["basis"][0][0]
        assert set(entry) == {"sign", "radicand_num", "radicand_den"}
        assert isinstance(entry["radicand_num"], str)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CodeBasis(CodeKind.AE, 5, ((SqrtRational.from_rational(1),),))
