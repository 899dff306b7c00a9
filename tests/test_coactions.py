"""Partial comodule-algebra data, dual functionals, and coenvelopes."""

from fractions import Fraction

import pytest

from mhopf.algebras import (
    Corner,
    group_algebra_plain,
    struct_const_algebra,
    subgroup_average_idempotent,
)
from mhopf.coactions import (
    DualFunctional,
    check_coaction_range,
    check_coglobalization,
    check_partial_coaction,
    check_quasi_counitary,
    coaction_globalize,
    dual_act,
    dual_mul,
    generated_subcomodule,
    mutate_coaction,
    tensor_comodule,
    trivial_coaction,
    with_identity_pi,
)
from mhopf.errors import CapabilityError, StructuralError
from mhopf.groups import alternating_elements, parse_group
from mhopf.mha import instance_for
from mhopf.scenarios import Context, build_structure
from mhopf.spans import Span
from mhopf.vectors import FinVec

F = Fraction


@pytest.fixture(scope="module")
def corner_coaction(S3, AG_S3, corner_A3):
    return trivial_coaction(corner_A3.algebra, AG_S3, FinVec.basis(S3.identity))


@pytest.fixture(scope="module")
def global_coaction():
    C4 = parse_group("cyclic:4")
    C2 = parse_group("cyclic:2")
    kC4 = instance_for("kG", C4)
    kC2 = group_algebra_plain(C2)
    return trivial_coaction(kC2, kC4, FinVec.basis(C4.identity))


class TestPartialCoaction:
    def test_battery_passes_on_corner(self, corner_coaction):
        results = check_partial_coaction(corner_coaction)
        assert [r.name for r in results] == [
            "rho_injective", "e_multiplier", "rho_homomorphism",
            "coassoc_covered", "coassoc_covered_symmetric",
            "e_absorbs_rho", "counit_recovery", "global_characterization",
        ]
        for res in results:
            assert res.outcome == "pass", (res.name, res.witnesses)

    def test_corner_instance_is_partial(self, corner_coaction):
        flag = {r.name: r for r in check_partial_coaction(corner_coaction)}[
            "global_characterization"]
        assert flag.details["global_coaction"] is False

    def test_group_algebra_unit_gives_global_coaction(self, global_coaction):
        results = check_partial_coaction(global_coaction)
        for res in results:
            assert res.outcome == "pass", (res.name, res.witnesses)
        flag = {r.name: r for r in results}["global_characterization"]
        assert flag.details["global_coaction"] is True

    def test_range_spans_agree(self, corner_coaction):
        for res in check_coaction_range(corner_coaction):
            assert res.outcome == "pass", (res.name, res.witnesses)

    def test_rho_values(self, corner_coaction, S3):
        # rho(x)(1 (x) delta_a) = x (x) delta_1 delta_a, so only a = 1
        # survives.
        C = corner_coaction
        x = C.target.basis[0]
        for a in S3.elements:
            got = C.rho_r(x, a)
            if a == S3.identity:
                assert got == FinVec.basis((x, a))
            else:
                assert got.is_zero()


class TestQuasiCounitary:
    def test_identity_token_passes(self, AG_S3, S3):
        results = check_quasi_counitary(AG_S3, FinVec.basis(S3.identity))
        for res in results:
            assert res.outcome == "pass", (res.name, res.witnesses)

    def test_other_tokens_fail(self, AG_S3, S3):
        for g in S3.elements:
            if g == S3.identity:
                continue
            results = check_quasi_counitary(AG_S3, FinVec.basis(g))
            by_name = {r.name: r for r in results}
            assert by_name["covered_identity"].outcome == "fail", g
            assert by_name["counit_one"].outcome == "fail", g

    def test_needs_regular_instance(self, AG_S3, S3):
        stripped = AG_S3._replace(
            antipode_inv=None, delta_r_flip=None, delta_l_flip=None)
        with pytest.raises(CapabilityError):
            check_quasi_counitary(stripped, FinVec.basis(S3.identity))


class TestMutations:
    def test_scaled_e_fails_idempotence_and_absorption(self, corner_coaction):
        bad = mutate_coaction(corner_coaction, "e_scale")
        results = check_partial_coaction(bad)
        by_name = {r.name: r for r in results}
        assert by_name["e_multiplier"].outcome == "fail"
        assert by_name["e_absorbs_rho"].outcome == "fail"
        assert by_name["coassoc_covered"].outcome == "fail"

    def test_dropped_rho_fails_injectivity(self, corner_coaction):
        bad = mutate_coaction(corner_coaction, "rho_drop")
        results = check_partial_coaction(bad)
        by_name = {r.name: r for r in results}
        assert by_name["rho_injective"].outcome == "fail"
        assert by_name["counit_recovery"].outcome == "fail"

    def test_unknown_kind(self, corner_coaction):
        with pytest.raises(CapabilityError):
            mutate_coaction(corner_coaction, "twist")


class TestDualFunctionals:
    def test_action_on_trivial_coaction_scales(self, corner_coaction, S3):
        # rho(x) = x (x) delta_1, so omega acts by the scalar omega(delta_1).
        C = corner_coaction
        x = FinVec.basis(C.target.basis[0])
        omega = DualFunctional(
            table=FinVec.basis(S3.identity, F(5)) + FinVec.basis((1, 0, 2), F(3)))
        assert dual_act(C, omega, x) == x.scale(F(5))

    def test_sandwich_normalization_rescales(self, corner_coaction, S3):
        C = corner_coaction
        x = FinVec.basis(C.target.basis[0])
        omega = DualFunctional(
            table=FinVec.basis(S3.identity, F(5)),
            left=FinVec.basis(S3.identity, F(2)),
            right=FinVec.basis(S3.identity, F(7)),
        )
        # omega(delta_1 _ delta_1) picks up both sandwich coefficients.
        assert dual_act(C, omega, x) == x.scale(F(70))

    def test_counit_functional_recovers_elements(self, regular):
        # On the regular comodule of kC4 the counit table (all ones)
        # composed with rho gives back the element.
        C4 = parse_group("cyclic:4")
        kC4 = instance_for("kG", C4)
        com = regular(kC4)
        eps = DualFunctional(
            table=FinVec((g, F(1)) for g in C4.elements),
            left=None,
            right=FinVec.basis(C4.identity),
        )
        for g in C4.elements:
            y = FinVec.basis(g)
            assert dual_act(com, eps, y) == y

    def test_nonpointwise_needs_right_sandwich(self, regular):
        C4 = parse_group("cyclic:4")
        kC4 = instance_for("kG", C4)
        com = regular(kC4)
        omega = DualFunctional(table=FinVec.basis(C4.identity))
        with pytest.raises(CapabilityError, match="right sandwich"):
            dual_act(com, omega, FinVec.basis(C4.identity))

    def test_product_is_group_convolution(self, AG_S3, S3):
        w1 = DualFunctional(table=FinVec.basis((1, 0, 2), F(2)))
        w2 = DualFunctional(table=FinVec.basis((1, 2, 0), F(3)))
        prod = dual_mul(AG_S3, w1, w2)
        expected_tok = S3.mul((1, 0, 2), (1, 2, 0))
        assert prod.table == FinVec.basis(expected_tok, F(6))

    def test_product_rejected_off_pointwise(self, kG_S3):
        w = DualFunctional(table=FinVec.basis(kG_S3.algebra.basis[0]))
        with pytest.raises(CapabilityError):
            dual_mul(kG_S3, w, w)

    def test_module_law_on_trivial_coaction(self, corner_coaction, S3):
        # (w1 * w2) |> x == w1 |> (w2 |> x), the coassociativity shadow.
        C = corner_coaction
        toks = list(S3.elements)
        w1 = DualFunctional(
            table=FinVec.basis(toks[1], F(2)) + FinVec.basis(toks[0], F(-1)))
        w2 = DualFunctional(
            table=FinVec.basis(toks[0], F(3)) + FinVec.basis(toks[4], F(1, 2)))
        for t in C.target.basis:
            x = FinVec.basis(t)
            lhs = dual_act(C, dual_mul(C.instance, w1, w2), x)
            rhs = dual_act(C, w1, dual_act(C, w2, x))
            assert lhs == rhs


class TestGeneratedSubcomodule:
    def test_orbit_of_group_like_is_full(self, regular):
        C4 = parse_group("cyclic:4")
        kC4 = instance_for("kG", C4)
        basis = generated_subcomodule(regular(kC4), [FinVec.basis(1)])
        assert len(basis) == 4
        assert all(isinstance(v, FinVec) for v in basis)

    def test_zero_seed_gives_zero(self, regular):
        C4 = parse_group("cyclic:4")
        kC4 = instance_for("kG", C4)
        assert generated_subcomodule(regular(kC4), [FinVec()]) == ()

    def test_closure_runs_past_three_dimensions(self, regular):
        # Seeded with the generator alone, the closure needs two product
        # rounds to reach every element of C4.
        C4 = parse_group("cyclic:4")
        kC4 = instance_for("kG", C4)
        span = Span(generated_subcomodule(regular(kC4), [FinVec.basis(1)]))
        assert span.rank == 4
        assert all(span.contains(FinVec.basis(g)) for g in C4.elements)

    @pytest.mark.parametrize("spec", [
        "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "symmetric:3"])
    def test_holds_seeds_and_closed_under_products(self, regular, spec):
        group = parse_group(spec)
        kG = instance_for("kG", group)
        g, h = group.elements[1], group.elements[-1]
        seeds = [FinVec.basis(g) + FinVec.basis(h, F(-2)), FinVec.basis(h, F(3))]
        basis = generated_subcomodule(regular(kG), seeds)
        span = Span(basis)
        assert all(span.contains(u) for u in seeds)
        assert all(span.contains(kG.algebra.mul(v, w)) for v in basis for w in basis)


class TestCoenvelope:
    def test_battery_passes(self, corner_coaction, S3):
        G = coaction_globalize(corner_coaction, FinVec.basis(S3.identity))
        results = check_coglobalization(G)
        assert [r.name for r in results] == [
            "comodule_algebra", "theta_monomorphism", "theta_right_ideal",
            "pi_projection", "e_projection", "theta_coaction_compat",
            "generation", "unital_specialization",
        ]
        for res in results:
            assert res.outcome == "pass", (res.name, res.witnesses)

    def test_rejects_broken_input_naming_lines(self, corner_coaction):
        # the scenario runner, not coaction_globalize, owns the precondition
        bad = mutate_coaction(corner_coaction, "e_scale")
        want = [f"partial_coaction:B.{r.name}" for r in check_partial_coaction(bad)
                if r.outcome != "pass"]
        assert "partial_coaction:B.e_multiplier" in want
        ctx = Context("e_scale")
        ctx.add("B", bad)
        with pytest.raises(StructuralError) as exc:
            build_structure(ctx, {"id": "env", "type": "coenvelope", "coaction": "B"})
        assert str(exc.value) == "input 'B' rejected: " + ", ".join(want)

    def test_rejects_element_that_is_not_quasi_counitary(self, corner_coaction):
        ctx = Context("e_two")
        ctx.add("C", corner_coaction)
        entry = {"id": "env", "type": "coenvelope", "coaction": "C",
                 "e": [[[0, 1, 2], 2]]}
        with pytest.raises(StructuralError) as exc:
            build_structure(ctx, entry)
        assert str(exc.value) == (
            "input 'C' rejected: quasi_counitary:C.idempotent, quasi_counitary:C.counit_one")

    def test_identity_pi_fails_on_partial_case(self, corner_coaction, S3):
        G = coaction_globalize(corner_coaction, FinVec.basis(S3.identity))
        crippled = with_identity_pi(G)
        results = check_coglobalization(crippled)
        by_name = {r.name: r for r in results}
        assert by_name["pi_projection"].outcome == "fail"
        assert by_name["e_projection"].outcome == "fail"
        reasons = [w.get("reason") for w in by_name["e_projection"].witnesses]
        assert "projection left theta(L)" in reasons

    def test_identity_pi_harmless_on_global_case(self, global_coaction):
        C4 = parse_group("cyclic:4")
        G = coaction_globalize(global_coaction, FinVec.basis(C4.identity))
        for res in check_coglobalization(with_identity_pi(G)):
            assert res.outcome == "pass", (res.name, res.witnesses)

    def test_battery_passes_on_S4(self):
        # the structures of scenario_bench/pending/coaction_S4.json
        S4 = parse_group("symmetric:4")
        kS4 = group_algebra_plain(S4)
        corner = Corner(
            kS4, subgroup_average_idempotent(kS4, alternating_elements(4)), name="cornerA4"
        )
        e = FinVec.basis(S4.identity)
        C = trivial_coaction(corner.algebra, instance_for("A_G", S4), e)
        results = check_coglobalization(coaction_globalize(C, e))
        assert len(results) == 8
        for res in results:
            assert res.outcome == "pass", (res.name, res.witnesses)

    def test_unital_specialization_needs_a_unit(self):
        # u u = u and every other product zero: no element is a unit, and
        # no scenario constructor builds such a coacted algebra
        L = struct_const_algebra("unit-plus-nil", ("u", "z"), {("u", "u"): FinVec.basis("u")})
        C4 = parse_group("cyclic:4")
        e = FinVec.basis(C4.identity)
        C = trivial_coaction(L, instance_for("A_G", C4), e)
        results = check_coglobalization(coaction_globalize(C, e))
        *laws, last = results
        for res in laws:
            assert res.outcome == "pass", (res.name, res.witnesses)
        assert (last.name, last.outcome) == ("unital_specialization", "inconclusive")
        assert last.details == {"reason": "coacted algebra has no unit"}

    def test_global_envelope_is_theta_image(self, global_coaction):
        # With E the identity, Q collapses onto theta(L).
        C4 = parse_group("cyclic:4")
        G = coaction_globalize(global_coaction, FinVec.basis(C4.identity))
        assert len(G.q_basis) == len(global_coaction.target.basis)
        for v in G.q_basis:
            assert G.pi(v) == v
