"""Corner action on a group algebra and projection-induced partial actions."""

from fractions import Fraction

import pytest

from mhopf.algebras import group_algebra_plain, subgroup_average_idempotent
from mhopf.errors import StructuralError
from mhopf.groups import alternating_elements, parse_group
from mhopf.partial_actions import (
    central_idempotent_projection,
    check_a_projection,
    check_partial_action,
    check_quasi_unitary,
    check_symmetric,
    example_fN,
    global_AG_on_kG,
    induce_from_projection,
    lambda_action,
    phi_embed,
    quasi_unitary_witness,
)
from mhopf.vectors import FinVec, grades

F = Fraction

SWAP01 = (1, 0, 2)   # transposition of the first two points
SWAP02 = (2, 1, 0)   # transposition of the outer points


@pytest.fixture(scope="module")
def corner_action(S3):
    return example_fN(S3, alternating_elements(3))


@pytest.fixture(scope="module")
def evaluation(S3):
    return global_AG_on_kG(S3)


def corner_vec(P, g):
    """f_N g as a vector in corner coordinates."""
    corner = P.aux["corner"]
    f = P.aux["idempotent"]
    kG = corner.ambient
    return corner.project(kG.mul(f, FinVec.basis(g)))


class TestCornerAction:
    def test_action_values_by_coset_oracle(self, corner_action, S3):
        # delta_p . (f_N h) = (1/3) f_N p when p and h share an A3 coset,
        # zero otherwise; recomputed from parities, not from the rule.
        from mhopf.groups import perm_parity

        P = corner_action
        for p in S3.elements:
            for h in S3.elements:
                got = P.act_vec(FinVec.basis(p), corner_vec(P, h))
                if perm_parity(p) == perm_parity(h):
                    assert got == corner_vec(P, p).scale(F(1, 3))
                else:
                    assert got.is_zero()

    def test_specific_transposition_value(self, corner_action):
        P = corner_action
        got = P.act_vec(FinVec.basis(SWAP01), corner_vec(P, SWAP02))
        assert got == corner_vec(P, SWAP01).scale(F(1, 3))

    def test_defining_battery_passes(self, corner_action):
        for res in check_partial_action(corner_action):
            assert res.outcome == "pass", (res.name, res.witnesses)
        for res in check_symmetric(corner_action):
            assert res.outcome == "pass", (res.name, res.witnesses)

    def test_action_is_partial_not_global(self, corner_action):
        results = check_partial_action(corner_action)
        flag = {r.name: r for r in results}["global_characterization"]
        assert flag.outcome == "pass"
        assert flag.details["global_action"] is False

    def test_quasi_unitary_witness_exists(self, corner_action):
        P = corner_action
        elems = [FinVec.basis(t) for t in P.algebra.basis]
        res = check_quasi_unitary(P, elems)
        assert res.outcome == "pass"
        b = res.details["witness"]
        for x in elems:
            assert P.act_vec(b, x) == x

    def test_phi_embed_tables(self, corner_action, S3):
        P = corner_action
        x = FinVec.basis(P.algebra.basis[0])
        emb = grades(phi_embed(P, x))
        for g, value in emb.items():
            assert value == P.act_vec(FinVec.basis(g), x)
        witness, _ = quasi_unitary_witness(P, [x])
        assert set(emb) <= set(witness.support())


class TestInducedAction:
    def test_matches_corner_action_on_all_pairs(self, corner_action, evaluation, S3):
        P = corner_action
        proj = central_idempotent_projection(evaluation, P.aux["idempotent"])
        induced = induce_from_projection(proj)
        assert induced.algebra.basis == P.algebra.basis
        pairs = 0
        for a in S3.elements:
            for x in P.algebra.basis:
                assert induced.act(a, x) == P.act(a, x), (a, x)
                pairs += 1
        assert pairs == 6 * len(P.algebra.basis)

    def test_induced_e_map_matches(self, corner_action, evaluation, S3):
        P = corner_action
        proj = central_idempotent_projection(evaluation, P.aux["idempotent"])
        induced = induce_from_projection(proj)
        for a in S3.elements:
            em_i = induced.e_map(a)
            em_p = P.e_map(a)
            for t in P.algebra.basis:
                v = FinVec.basis(t)
                assert em_i.apply_left(v) == em_p.apply_left(v)
                assert em_i.apply_right(v) == em_p.apply_right(v)

    def test_projection_battery(self, corner_action, evaluation):
        proj = central_idempotent_projection(
            evaluation, corner_action.aux["idempotent"])
        for res in check_a_projection(proj):
            assert res.outcome == "pass", (res.name, res.witnesses)

    def test_unit_projection_gives_global_flag(self, evaluation):
        proj = central_idempotent_projection(evaluation, evaluation.algebra.one)
        induced = induce_from_projection(proj)
        results = check_partial_action(induced)
        flag = {r.name: r for r in results}["global_characterization"]
        assert flag.outcome == "pass"
        assert flag.details["global_action"] is True

    def test_noncentral_idempotent_rejected(self, evaluation, S3):
        p = (FinVec.basis(S3.identity) + FinVec.basis(SWAP01)).scale(F(1, 2))
        proj = central_idempotent_projection(evaluation, p)
        results = check_a_projection(proj)
        assert any(r.outcome == "fail" for r in results)
        with pytest.raises(StructuralError, match="projection rejected"):
            induce_from_projection(proj)

    def test_non_idempotent_rejected_up_front(self, evaluation, S3):
        with pytest.raises(StructuralError, match="idempotent"):
            central_idempotent_projection(evaluation, FinVec.basis(SWAP01, F(2)))


class TestOtherActions:
    def test_lambda_action_battery(self, S3):
        target = group_algebra_plain(parse_group("cyclic:2"))
        P = lambda_action(S3, alternating_elements(3), target)
        for res in check_partial_action(P):
            assert res.outcome == "pass", (res.name, res.witnesses)
        for res in check_symmetric(P):
            assert res.outcome == "pass", (res.name, res.witnesses)

    def test_lambda_quasi_unit_is_subgroup_indicator(self, S3):
        target = group_algebra_plain(parse_group("cyclic:2"))
        P = lambda_action(S3, alternating_elements(3), target)
        elems = [FinVec.basis(t) for t in target.basis]
        witness, exhausted = quasi_unitary_witness(P, elems)
        assert witness is not None
        x = FinVec.basis(target.basis[0])
        assert P.act_vec(witness, x) == x

    def test_global_action_viewed_as_partial(self, evaluation):
        # e = counit: the partial-action laws hold and the flag reads global
        results = check_partial_action(evaluation)
        for res in results:
            assert res.outcome == "pass", (res.name, res.witnesses)
        flag = {r.name: r for r in results}["global_characterization"]
        assert flag.details["global_action"] is True

    def test_example_rejects_non_normal_subgroup(self, S3):
        with pytest.raises(StructuralError, match="normal"):
            example_fN(S3, ((0, 1, 2), SWAP01))
