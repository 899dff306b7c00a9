"""Convolution algebra of collapsed homomorphism tables.

The convolution oracle below recomputes (F*G)(c) with a full double loop
over the group, independent of the support-indexed closed form and of the
coverage-based generic path.
"""

import random
from fractions import Fraction

import pytest

from mhopf.algebras import group_algebra_plain
from mhopf.errors import CapabilityError
from mhopf.groups import parse_group
from mhopf.homr import (
    HomRElem,
    check_conv_associative,
    check_conv_paths_agree,
    check_convolutive_inverse,
    check_module_algebra,
    conv_mul,
    conv_mul_generic,
    module_act,
)
from mhopf.mha import instance_for
from mhopf.scenarios import _random_hom_samples
from mhopf.vectors import FinVec

F = Fraction


def zero_act(a, F: HomRElem) -> HomRElem:
    """Degenerate action used by fail fixtures."""
    return HomRElem(F.source, F.target)


def conv_oracle(group, target, f, g):
    """(F*G)(c) = sum over all p, q with pq = c, no support shortcuts."""
    table = {}
    for p in group.elements:
        for q in group.elements:
            c = group.mul(p, q)
            val = target.mul(f.value(p), g.value(q))
            table[c] = table.get(c, FinVec()) + val
    return HomRElem(f.source, f.target, table)


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
                assert conv_mul(f, g) == conv_oracle(S3, target, f, g)

    def test_generic_coverage_path_matches_closed(self, samples):
        res = check_conv_paths_agree(samples)
        assert res.outcome == "pass"
        for f in samples:
            for g in samples:
                assert conv_mul_generic(f, g) == conv_mul(f, g)

    def test_associative_on_125_random_triples(self, samples):
        assert len(samples) ** 3 >= 100
        res = check_conv_associative(samples)
        assert res.outcome == "pass"
        assert res.details["triples"] == 125

    def test_zero_is_absorbing(self, hom_space, samples):
        source, target = hom_space
        z = HomRElem(source, target)
        for f in samples:
            assert conv_mul(f, z).is_zero()
            assert conv_mul(z, f).is_zero()


@pytest.mark.parametrize("spec, seed", [("symmetric:3", 3), ("cyclic:4", 8)])
def test_conv_mul_matches_the_oracle(spec, seed):
    group = parse_group(spec)
    source, target = instance_for("A_G", group), group_algebra_plain(group)
    samples = _random_hom_samples(random.Random(seed), source, target, 6)
    for f in samples:
        for g in samples:
            got, want = conv_mul(f, g), conv_oracle(group, target, f, g)
            assert got == want
            assert got.support() == want.support()
            assert got.is_zero() == want.is_zero()


def test_conv_mul_drops_a_group_element_whose_terms_cancel(C4):
    source, target = instance_for("A_G", C4), group_algebra_plain(C4)
    u, v = FinVec.basis(1), FinVec.basis(3)
    f = HomRElem(source, target, {0: u, 1: u})
    # at 1 = 0 + 1 = 1 + 0 the two terms u*v and -u*v cancel
    g = HomRElem(source, target, {1: v, 0: -v})
    prod = conv_mul(f, g)
    assert prod.support() == [0, 2]
    assert prod.value(1) == FinVec()
    assert not prod.is_zero()
    assert prod == conv_oracle(C4, target, f, g)
    # every group element cancels: the product is zero
    h = HomRElem(source, target, {0: v, 2: -v})
    zero = conv_mul(HomRElem(source, target, {0: u, 2: u}), h)
    assert zero.is_zero() and zero.support() == []
    assert zero == HomRElem(source, target)


class TestModuleStructure:
    def test_action_scales_tables_pointwise(self, hom_space, samples, S3):
        source, target = hom_space
        for f in samples:
            for g in S3.elements:
                acted = module_act(g, f)
                for h in S3.elements:
                    want = f.value(h) if h == g else FinVec()
                    assert acted.value(h) == want

    def test_module_algebra_battery(self, hom_space, samples):
        source, target = hom_space
        for res in check_module_algebra(source, target, samples=samples):
            assert res.outcome == "pass", (res.name, res.witnesses)

    def test_degenerate_action_fails_battery(self, hom_space, samples):
        source, target = hom_space
        results = check_module_algebra(source, target, samples=samples, act=zero_act)
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
