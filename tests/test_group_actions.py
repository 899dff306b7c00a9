"""Corner pairs (sigma_g, alpha_g) for finite groups and the passage to
module-algebra data over the group algebra."""

from fractions import Fraction

import pytest

from mhopf.algebras import Multiplier, group_algebra_plain
from mhopf.errors import StructuralError
from mhopf.group_actions import (
    check_globalizability,
    check_pga,
    check_sigma_conditions,
    conjugation_pga,
    gamma_element,
    mutate_pga,
    roundtrip_check,
    subset_translation_pga,
    to_group,
    to_hopf,
    zero_corner_pga,
)
from mhopf.groups import parse_group
from mhopf.partial_actions import check_partial_action, check_symmetric
from mhopf.scenarios import Context, build_structure
from mhopf.vectors import FinVec

F = Fraction

X3 = ((0, 1, 2), (1, 0, 2), (1, 2, 0))


@pytest.fixture(scope="module")
def translation(S3):
    return subset_translation_pga(S3, X3)


def battery(P):
    return check_pga(P) + check_sigma_conditions(P) + check_globalizability(P)


class TestSubsetTranslation:
    def test_corner_dimensions_match_set_oracle(self, translation, S3):
        # corner(g) is spanned by the points of X n gX.
        xset = set(X3)
        for g in S3.elements:
            overlap = {x for x in xset if S3.mul(S3.inv(g), x) in xset}
            assert len(translation.corners[g]) == len(overlap), g

    def test_full_battery_passes(self, translation):
        for res in battery(translation):
            assert res.outcome == "pass", (res.name, res.witnesses)

    def test_full_battery_passes_on_S4(self):
        # the structures of scenario_bench/pending/pga_S4_full.json
        S4 = parse_group("symmetric:4")
        results = battery(subset_translation_pga(S4, S4.elements))
        assert [res.name for res in results] == [
            "identity_component", "alpha_isomorphisms", "alpha_multiplicative",
            "intersection_translation", "composition", "sigma_central_idempotent",
            "sigma_translation", "sigma_absorbs_alpha", "corner_containment",
            "corners_s_unital", "gamma_range", "gamma_restriction",
        ]
        for res in results:
            assert res.outcome == "pass", (res.name, res.witnesses)

    def test_alpha_moves_point_masses(self, translation, S3):
        g = (1, 0, 2)
        e = (0, 1, 2)
        moved = translation.alpha[g](FinVec.basis(e))
        assert moved == FinVec.basis(g)

    def test_gamma_agrees_with_conjugated_right_multiplication(self, translation, S3):
        # y gamma_g(x) = alpha_g(alpha_{g^-1}(y) x) on the g corner.
        P = translation
        for g in S3.elements:
            for t in P.algebra.basis:
                gamma = gamma_element(P, g, t)
                for y in P.corners[g]:
                    pulled = P.alpha[S3.inv(g)](y)
                    direct = P.alpha[g](P.algebra.mul(pulled, FinVec.basis(t)))
                    assert P.algebra.mul(y, gamma) == direct


class TestHopfSide:
    def test_induced_action_battery(self, translation):
        Q = to_hopf(translation)
        for res in check_partial_action(Q):
            assert res.outcome == "pass", (res.name, res.witnesses)
        for res in check_symmetric(Q):
            assert res.outcome == "pass", (res.name, res.witnesses)

    def test_e_map_is_sigma(self, translation):
        Q = to_hopf(translation)
        for g in translation.group.elements:
            m1 = Q.e_map(g)
            m2 = translation.sigma[g]
            for t in translation.algebra.basis:
                v = FinVec.basis(t)
                assert m1.apply_left(v) == m2.apply_left(v)
                assert m1.apply_right(v) == m2.apply_right(v)

    def test_roundtrip_exact(self, translation):
        for res in roundtrip_check(translation):
            assert res.outcome == "pass", (res.name, res.witnesses)

    def test_roundtrip_on_global_and_trivial_cases(self, C4, S3):
        for P in (
            subset_translation_pga(C4, C4.elements),
            subset_translation_pga(S3, (S3.identity,)),
        ):
            for res in roundtrip_check(P):
                assert res.outcome == "pass", (P.name, res.name, res.witnesses)

    def test_global_case_has_identity_range_multipliers(self, C4):
        # Full subset: every sigma_g is the identity multiplier and the
        # induced module-algebra action is global.
        P = subset_translation_pga(C4, C4.elements)
        for g in C4.elements:
            for t in P.algebra.basis:
                v = FinVec.basis(t)
                assert P.sigma[g].apply_left(v) == v
                assert P.sigma[g].apply_right(v) == v
        Q = to_hopf(P)
        flag = {r.name: r for r in check_partial_action(Q)}["global_characterization"]
        assert flag.outcome == "pass"
        assert flag.details["global_action"] is True


class TestMutations:
    def test_alpha_scaling_breaks_multiplicativity(self, translation):
        # mutate at a token whose domain corner is nonzero
        bad = mutate_pga(translation, "alpha", g=(1, 0, 2))
        results = check_pga(bad)
        by_name = {r.name: r for r in results}
        assert by_name["alpha_multiplicative"].outcome == "fail"
        assert by_name["composition"].outcome == "fail"
        # the scenario runner rejects the mutant before to_hopf sees it
        want = [f"pga:M.{r.name}" for r in results if r.outcome != "pass"]
        want += [f"sigma_conditions:M.{r.name}" for r in check_sigma_conditions(bad)
                 if r.outcome != "pass"]
        ctx = Context("alpha")
        ctx.add("M", bad)
        entry = {"id": "Q", "type": "action", "constructor": "to_hopf", "pga": "M"}
        with pytest.raises(StructuralError) as exc:
            build_structure(ctx, entry)
        assert str(exc.value) == "input 'M' rejected: " + ", ".join(want)

    def test_witness_caps_stop_at_the_first_five(self):
        # two scaled alphas fail at more than one outer g; each law keeps
        # the five witnesses it finds first
        C6 = parse_group("cyclic:6")
        P = subset_translation_pga(C6, C6.elements)
        bad = mutate_pga(mutate_pga(P, "alpha", g=1), "alpha", g=2)
        by_name = {r.name: r for r in
                   check_pga(bad) + check_sigma_conditions(bad) + check_globalizability(bad)}
        for name in ("alpha_multiplicative", "composition", "sigma_translation",
                     "gamma_restriction"):
            assert len(by_name[name].witnesses) <= 5, name
        assert [w["g"] for w in by_name["alpha_multiplicative"].witnesses] == [1] * 5
        assert [(w["g"], w["x"]) for w in by_name["gamma_restriction"].witnesses] == [
            (4, t) for t in range(5)]

    def test_noncentral_sigma_detected(self, S3):
        P = conjugation_pga(S3, (1, 0, 2))
        for res in battery(P):
            assert res.outcome == "pass", (res.name, res.witnesses)
        kS3 = P.algebra
        p = (FinVec.basis(S3.identity) + FinVec.basis((1, 0, 2))).scale(F(1, 2))
        noncentral = Multiplier.from_rules(
            kS3, lambda b: kS3.mul(p, FinVec.basis(b)), lambda b: kS3.mul(FinVec.basis(b), p),
            kS3.basis)
        bad = mutate_pga(P, "sigma", g=1, multiplier=noncentral)
        results = check_sigma_conditions(bad)
        by_name = {r.name: r for r in results}
        assert by_name["sigma_central_idempotent"].outcome == "fail"
        laws = {w["law"] for w in by_name["sigma_central_idempotent"].witnesses}
        assert laws == {"central"}

    def test_zero_product_corner_fails_s_unitality_only(self):
        P = zero_corner_pga()
        for res in check_pga(P) + check_sigma_conditions(P):
            assert res.outcome == "pass", (res.name, res.witnesses)
        results = check_globalizability(P)
        by_name = {r.name: r for r in results}
        assert by_name["corners_s_unital"].outcome == "fail"
        assert by_name["gamma_range"].outcome == "pass"
        assert by_name["gamma_restriction"].outcome == "pass"
        w = by_name["corners_s_unital"].witnesses[0]
        assert w["element"] == FinVec.basis("z")

    def test_to_group_names_noncentral_witness(self, translation, S3):
        Q = to_hopf(translation)
        p = (FinVec.basis(X3[0]) + FinVec.basis(X3[1])).scale(F(1, 2))
        # pointwise algebras are commutative, so fake noncentrality with
        # asymmetric left/right rules instead
        lopsided = Multiplier.from_rules(
            Q.algebra,
            lambda t: FinVec.basis(t),
            lambda t: FinVec(),
            window=Q.algebra.basis,
        )
        broken = Q._replace(e_map=lambda g: lopsided)
        with pytest.raises(StructuralError, match="not central, witness"):
            to_group(broken)

    def test_unknown_mutation_kind(self, translation):
        with pytest.raises(StructuralError, match="unknown mutation"):
            mutate_pga(translation, "corner")


class TestGroupAlgebraCollapse:
    def test_single_term_comultiplication_tables(self, kG_S3, S3):
        # Delta(g)(1 (x) b) is always the single tensor g (x) gb, which is
        # what makes the group-side passage collapse to finite data.
        for g in S3.elements:
            for b in S3.elements:
                vec = kG_S3.delta_r(g, b)
                assert len(vec.support()) == 1
                ((u, w),) = vec.support()
                assert u == g and w == S3.mul(g, b)

    def test_recovered_group_side_equals_original(self, translation):
        Q = to_hopf(translation)
        R = to_group(Q)
        assert set(R.corners) == set(translation.corners)
        for g in translation.group.elements:
            for v in translation.corners[translation.group.inv(g)]:
                assert R.alpha[g](v) == translation.alpha[g](v)


@pytest.mark.parametrize("which", ["C6_full", "S3_corner"])
def test_to_hopf_act_is_gamma_on_every_pair(S3, which):
    if which == "C6_full":
        C6 = parse_group("cyclic:6")
        P = subset_translation_pga(C6, C6.elements)
    else:
        P = subset_translation_pga(S3, X3)
    Q = to_hopf(P)
    for _ in range(2):
        for g in P.group.elements:
            for t in P.algebra.basis:
                assert Q.act(g, t) == gamma_element(P, g, FinVec.basis(t)), (g, t)
