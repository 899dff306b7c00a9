"""Convolution algebra of collapsed homomorphism tables.

A table is a vector on (g, t) tokens of `convolution_algebra`.  The
convolution oracle below recomputes (F*G)(c) with a full double loop over
the group, independent of the graded rule and of the coverage-based
generic path.
"""

import json
import random
from fractions import Fraction

import pytest

from mhopf import cli, homr
from mhopf.algebras import convolution_algebra, group_algebra_plain, pointwise_algebra
from mhopf.errors import CapabilityError
from mhopf.group_actions import subset_translation_pga, to_hopf
from mhopf.groups import parse_group
from mhopf.homr import (
    check_convolution,
    check_convolutive_inverse,
    check_module_algebra,
    conv_mul,
    conv_mul_generic,
    module_act,
)
from mhopf.mha import check_mha_axioms, instance_for, mha_from_delta
from mhopf.partial_actions import globalize
from mhopf.scenarios import _random_hom_samples, load_scenario, run_scenario
from mhopf.vectors import FinVec, bilinear, from_grades, grades

F = Fraction


def conv_oracle(group, target, f, g):
    """(F*G)(c) = sum over all p, q with pq = c, no support shortcuts."""
    fg, gg = grades(f), grades(g)
    out = {}
    for p in group.elements:
        for q in group.elements:
            c = group.mul(p, q)
            val = target.mul(fg.get(p, FinVec()), gg.get(q, FinVec()))
            out[c] = out.get(c, FinVec()) + val
    return from_grades(out)


@pytest.fixture(scope="module")
def hom_space(S3):
    source = instance_for("A_G", S3)
    target = group_algebra_plain(S3)
    return source, target


@pytest.fixture(scope="module")
def samples(hom_space, S3):
    source, target = hom_space
    rng = random.Random(11)
    return _random_hom_samples(rng, source, target, 5)


class TestConvolution:
    def test_closed_form_matches_oracle(self, hom_space, samples, S3):
        source, target = hom_space
        for f in samples:
            for g in samples:
                assert conv_mul(source, target, f, g) == conv_oracle(S3, target, f, g)

    def test_generic_coverage_path_matches_closed(self, hom_space, samples):
        source, target = hom_space
        res = check_convolution(source, target, samples)[1]
        assert (res.name, res.outcome) == ("conv_paths_agree", "pass")
        for f in samples:
            for g in samples:
                assert conv_mul_generic(source, target, f, g) == conv_mul(source, target, f, g)

    def test_associative_on_125_random_triples(self, hom_space, samples):
        assert len(samples) ** 3 >= 100
        res = check_convolution(*hom_space, samples)[0]
        assert (res.name, res.outcome) == ("conv_associative", "pass")
        assert res.details["triples"] == 125

    def test_zero_is_absorbing(self, hom_space, samples):
        z = FinVec()
        for f in samples:
            assert conv_mul(*hom_space, f, z).is_zero()
            assert conv_mul(*hom_space, z, f).is_zero()


@pytest.mark.parametrize("spec, seed", [("symmetric:3", 3), ("cyclic:4", 8)])
def test_conv_mul_matches_the_oracle(spec, seed):
    group = parse_group(spec)
    source, target = instance_for("A_G", group), group_algebra_plain(group)
    samples = _random_hom_samples(random.Random(seed), source, target, 6)
    for f in samples:
        for g in samples:
            got, want = conv_mul(source, target, f, g), conv_oracle(group, target, f, g)
            assert got == want
            assert got.support() == want.support()
            assert got.is_zero() == want.is_zero()


@pytest.mark.parametrize("spec, seed", [("symmetric:3", 3), ("cyclic:4", 8)])
def test_envelope_product_is_the_certified_product(spec, seed):
    # the envelope multiplies with convolution_algebra's `mul`, the
    # `convolution` check certifies `conv_mul` against `conv_mul_generic`
    group = parse_group(spec)
    source, target = instance_for("A_G", group), group_algebra_plain(group)
    env = convolution_algebra(group, target)
    samples = _random_hom_samples(random.Random(seed), source, target, 6)
    for f in samples:
        for g in samples:
            closed = conv_mul(source, target, f, g)
            assert env.mul(f, g) == closed
            assert conv_mul_generic(source, target, f, g) == closed


def test_conv_mul_drops_a_group_element_whose_terms_cancel(C4):
    source, target = instance_for("A_G", C4), group_algebra_plain(C4)
    u, v = FinVec.basis(1), FinVec.basis(3)
    f = from_grades({0: u, 1: u})
    # at 1 = 0 + 1 = 1 + 0 the two terms u*v and -u*v cancel
    g = from_grades({1: v, 0: -v})
    prod = conv_mul(source, target, f, g)
    assert sorted(grades(prod)) == [0, 2]
    assert not prod.is_zero()
    assert prod == conv_oracle(C4, target, f, g)
    # every group element cancels: the product is zero
    h = from_grades({0: v, 2: -v})
    zero = conv_mul(source, target, from_grades({0: u, 2: u}), h)
    assert zero.is_zero() and zero.support() == ()
    assert zero == FinVec()


class TestModuleStructure:
    def test_action_scales_tables_pointwise(self, samples, S3):
        for f in samples:
            for g in S3.elements:
                acted = grades(bilinear(module_act)(FinVec.basis(g), f))
                for h in S3.elements:
                    want = grades(f).get(h, FinVec()) if h == g else FinVec()
                    assert acted.get(h, FinVec()) == want

    def test_module_algebra_battery(self, hom_space, samples):
        source, target = hom_space
        for res in check_module_algebra(source, target, samples=samples):
            assert res.outcome == "pass", (res.name, res.witnesses)

    def test_degenerate_action_fails_battery(self, hom_space, samples, monkeypatch):
        source, target = hom_space
        monkeypatch.setattr(homr, "module_act", lambda a, tok: FinVec())
        results = check_module_algebra(source, target, samples=samples)
        assert any(r.outcome == "fail" for r in results)


class TestConvolutiveInverse:
    def test_antipode_passes_per_basis_element_A_C4(self):
        M = instance_for("A_G", parse_group("cyclic:4"))
        for a in M.algebra.basis:
            res = check_convolutive_inverse(
                M, M.antipode, lambda t: FinVec.basis(t), [a]
            )
            assert res.outcome == "pass", (a, res.witnesses)

    def test_antipode_passes_per_basis_element_kC2(self):
        M = instance_for("kG", parse_group("cyclic:2"))
        for a in M.algebra.basis:
            res = check_convolutive_inverse(
                M, M.antipode, lambda t: FinVec.basis(t), [a]
            )
            assert res.outcome == "pass", (a, res.witnesses)

    def test_identity_candidate_fails_at_non_involutions(self):
        # On functions over C4 the identity map inverts itself only at
        # tokens with g = g^{-1}: the two non-involutions are witnesses,
        # the involution 2 is not.
        M = instance_for("A_G", parse_group("cyclic:4"))
        ident = lambda t: FinVec.basis(t)
        per_elem = {}
        for a in M.algebra.basis:
            res = check_convolutive_inverse(M, ident, ident, [a])
            per_elem[a] = res.outcome
        assert per_elem == {0: "pass", 1: "fail", 2: "pass", 3: "fail"}

    def test_identity_candidate_fails_set_level(self):
        M = instance_for("A_G", parse_group("cyclic:4"))
        ident = lambda t: FinVec.basis(t)
        non_identity = [a for a in M.algebra.basis if a != 0]
        res = check_convolutive_inverse(M, ident, ident, non_identity)
        assert res.outcome == "fail"
        seen = [w["a"] for w in res.witnesses]
        for a in seen:
            assert a in (FinVec.basis(1), FinVec.basis(3))

    def test_identity_equals_antipode_on_kC2(self):
        # Every element of C2 is self-inverse, so the group algebra
        # antipode literally is the identity on basis tokens.
        M = instance_for("kG", parse_group("cyclic:2"))
        for g in M.algebra.basis:
            assert M.antipode(g) == FinVec.basis(g)
        ident = lambda t: FinVec.basis(t)
        res = check_convolutive_inverse(M, ident, ident, list(M.algebra.basis))
        assert res.outcome == "pass"

    def test_irregular_instance_rejected(self, C4):
        M = instance_for("A_G", C4)
        stripped = M._replace(antipode_inv=None, delta_r_flip=None,
                              delta_l_flip=None)
        assert not stripped.is_regular()
        with pytest.raises(CapabilityError):
            check_convolutive_inverse(
                stripped, M.antipode, lambda t: FinVec.basis(t), [M.algebra.basis[0]]
            )


@pytest.mark.parametrize("kind, spec", [("A_G", "cyclic:4"), ("kG", "symmetric:3")])
def test_registry_default_candidate_is_the_antipode(kind, spec):
    # the registry's default candidate is S against the identity: S * id and
    # id * S are both the counit, so a lawful instance passes
    doc = {
        "schema": 1,
        "name": f"inverse_{kind}",
        "seed": 0,
        "structures": [
            {"id": "G", "type": "group", "spec": spec},
            {"id": "M", "type": "instance", "kind": kind, "group": "G"},
        ],
        "checks": [{"check": "convolutive_inverse", "target": "M"}],
    }
    (line,) = run_scenario(load_scenario(json.dumps(doc))).checks
    assert (line.outcome, line.witnesses) == ("pass", []), line


NOT_FINITE = "does not collapse right multiplications to finite tables"


def test_convolution_on_a_kG_source_exits_3(tmp_path, capsys):
    doc = {
        "schema": 1,
        "name": "conv_kG_C4",
        "seed": 0,
        "structures": [
            {"id": "G", "type": "group", "spec": "cyclic:4"},
            {"id": "M", "type": "instance", "kind": "kG", "group": "G"},
        ],
        "checks": [{"check": "convolution", "source": "M"}],
    }
    path = tmp_path / "conv_kG_C4.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert NOT_FINITE in captured.err


def test_tables_refuse_an_opposite_comultiplication(S3):
    # Delta_op(f)(p, q) = f(qp) is lawful on the pointwise algebra, but
    # conv_mul convolves with the group product, so its tables would fail
    # conv_paths_agree for the instance's sake
    def delta_op(g):
        return FinVec(((u, v), 1) for u in S3.elements for v in S3.elements
                      if S3.mul(v, u) == g)

    op = mha_from_delta(pointwise_algebra(S3), delta_op,
                        lambda g: F(int(g == S3.identity)),
                        lambda g: FinVec.basis(S3.inv(g)), name="A_G_op:S3")
    assert all(r.outcome == "pass" for r in check_mha_axioms(op))
    with pytest.raises(CapabilityError, match="wrong product"):
        _random_hom_samples(random.Random(0), op, group_algebra_plain(S3), 5)


def test_globalize_rejects_a_to_hopf_action(C4):
    Q = to_hopf(subset_translation_pga(C4, (0, 1)))
    with pytest.raises(CapabilityError, match=NOT_FINITE):
        globalize(Q)
