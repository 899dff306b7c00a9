"""Closed-form comultiplication rules against brute-force oracles.

The function-algebra rules are checked by materializing both sides as
function tables on G x G; the group-algebra rules by multiplying out in
the tensor square algebra.  Neither oracle touches the closed forms.
"""

import json
from fractions import Fraction

import pytest

from mhopf.algebras import (
    group_algebra_plain,
    pointwise_algebra,
    struct_const_algebra,
    tensor_square_algebra,
)
from mhopf.errors import StructuralError
from mhopf.groups import parse_group, symmetric_group
from mhopf.mha import (
    check_counit_homomorphism,
    check_coverage_bijections,
    check_mha_axioms,
    check_regular,
    instance_for,
    mha_from_delta,
    mutate_instance,
)
from mhopf.reports import render_value
from mhopf.spans import Span
from mhopf.vectors import FinVec, tensor

F = Fraction


def pair_table(group, pairs: FinVec) -> dict:
    """Expand sum c * (delta_s (x) delta_t) into a function table on G^2."""
    table = {}
    for (s, t), c in pairs.items():
        table[(s, t)] = table.get((s, t), F(0)) + c
    return {k: v for k, v in table.items() if v}


class TestFunctionAlgebraRules:
    def test_delta_r_is_multiplication_pullback(self, S3, AG_S3):
        # Delta(f)(p1,p2) = f(p1 p2), then cut down by (1 (x) delta_q).
        for r in S3.elements:
            for q in S3.elements:
                got = pair_table(S3, AG_S3.delta_r(r, q))
                want = {}
                for p1 in S3.elements:
                    for p2 in S3.elements:
                        val = F(int(S3.mul(p1, p2) == r)) * F(int(p2 == q))
                        if val:
                            want[(p1, p2)] = val
                assert got == want

    def test_delta_l_is_multiplication_pullback(self, S3, AG_S3):
        for p in S3.elements:
            for r in S3.elements:
                got = pair_table(S3, AG_S3.delta_l(p, r))
                want = {}
                for p1 in S3.elements:
                    for p2 in S3.elements:
                        val = F(int(p1 == p)) * F(int(S3.mul(p1, p2) == r))
                        if val:
                            want[(p1, p2)] = val
                assert got == want

    def test_t1_inverse_really_inverts(self, S3, AG_S3):
        # T1(a (x) b) = Delta(a)(1 (x) b); applying it to t1_inv(s, q)
        # must return delta_s (x) delta_q on every pair.
        for s in S3.elements:
            for q in S3.elements:
                back = FinVec()
                for (a, b), c in AG_S3.t1_inv(s, q).items():
                    back = back + AG_S3.delta_r(a, b).scale(c)
                assert back == tensor(FinVec.basis(s), FinVec.basis(q))

    def test_t2_inverse_really_inverts(self, S3, AG_S3):
        for p in S3.elements:
            for s in S3.elements:
                back = FinVec()
                for (a, b), c in AG_S3.t2_inv(p, s).items():
                    back = back + AG_S3.delta_l(a, b).scale(c)
                assert back == tensor(FinVec.basis(p), FinVec.basis(s))

    def test_counit_is_evaluation_at_identity(self, S3, AG_S3):
        for g in S3.elements:
            assert AG_S3.counit(g) == F(int(g == S3.identity))

    def test_antipode_is_inversion_pullback(self, S3, AG_S3):
        # (S f)(p) = f(p^{-1}); on basis vectors that sends
        # delta_g to delta_{g^{-1}}.
        for g in S3.elements:
            assert AG_S3.antipode(g) == FinVec.basis(S3.inv(g))

    def test_flip_rules_on_the_regular_instance(self, S3, AG_S3):
        assert AG_S3.is_regular()
        for r in S3.elements:
            for b in S3.elements:
                got = pair_table(S3, AG_S3.delta_r_flip(r, b))
                want = {}
                for p1 in S3.elements:
                    for p2 in S3.elements:
                        val = F(int(S3.mul(p1, p2) == r)) * F(int(p1 == b))
                        if val:
                            want[(p1, p2)] = val
                assert got == want


class TestGroupAlgebraRules:
    def test_delta_r_by_tensor_square_product(self, S3, kG_S3):
        # Delta(g) = g (x) g, so Delta(g)(1 (x) b) is a product in
        # kG (x) kG computed with the generic tensor square algebra.
        A = group_algebra_plain(S3)
        T = tensor_square_algebra(A, A)
        for g in S3.elements:
            for b in S3.elements:
                want = T.mul(FinVec.basis((g, g)), FinVec.basis((S3.identity, b)))
                assert kG_S3.delta_r(g, b) == want

    def test_delta_l_by_tensor_square_product(self, S3, kG_S3):
        A = group_algebra_plain(S3)
        T = tensor_square_algebra(A, A)
        for a in S3.elements:
            for h in S3.elements:
                want = T.mul(FinVec.basis((a, S3.identity)), FinVec.basis((h, h)))
                assert kG_S3.delta_l(a, h) == want

    def test_coverage_inverses_invert(self, S3, kG_S3):
        for s in S3.elements:
            for q in S3.elements:
                back = FinVec()
                for (a, b), c in kG_S3.t1_inv(s, q).items():
                    back = back + kG_S3.delta_r(a, b).scale(c)
                assert back == tensor(FinVec.basis(s), FinVec.basis(q))
                back = FinVec()
                for (a, b), c in kG_S3.t2_inv(s, q).items():
                    back = back + kG_S3.delta_l(a, b).scale(c)
                assert back == tensor(FinVec.basis(s), FinVec.basis(q))

    def test_counit_and_antipode(self, S3, kG_S3):
        for g in S3.elements:
            assert kG_S3.counit(g) == F(1)
            assert kG_S3.antipode(g) == FinVec.basis(S3.inv(g))


class TestSweedlerPatterns:
    """The two covered Sweedler expansions with an antipode are stored
    rules: iS, sum a_1 (x) S(a_2) b, is t1_inv, and Sinv,
    sum a_2 (x) S^{-1}(a_1) b, is cov_Sinv.  Both are expanded here from
    Delta(delta_p) = sum_{uv=p} d_u (x) d_v."""

    def test_iS_pattern_by_brute_force(self, S3, AG_S3):
        # sum a_1 (x) S(a_2) b: keep the terms where v^{-1} = q.
        for p in S3.elements:
            for q in S3.elements:
                want = FinVec()
                for u in S3.elements:
                    for v in S3.elements:
                        if S3.mul(u, v) == p and S3.inv(v) == q:
                            want = want + FinVec.basis((u, q))
                assert AG_S3.t1_inv(p, q) == want

    def test_Sinv_pattern_by_brute_force(self, S3, AG_S3):
        # sum a_2 (x) S^{-1}(a_1) b: keep terms where u^{-1} = q.
        for p in S3.elements:
            for q in S3.elements:
                want = FinVec()
                for u in S3.elements:
                    for v in S3.elements:
                        if S3.mul(u, v) == p and S3.inv(u) == q:
                            want = want + FinVec.basis((v, q))
                assert AG_S3.cov_Sinv(p, q) == want

    def test_closed_forms_on_a_sample(self, S3, AG_S3):
        p = (1, 2, 0)
        q = (1, 0, 2)
        assert AG_S3.t1_inv(p, q) == FinVec.basis((S3.mul(p, q), q))
        assert AG_S3.cov_Sinv(p, q) == FinVec.basis((S3.mul(q, p), q))


class TestAxiomBattery:
    @pytest.mark.parametrize(
        "kind,spec",
        [
            ("A_G", "cyclic:2"),
            ("A_G", "cyclic:4"),
            ("A_G", "symmetric:3"),
            ("kG", "cyclic:2"),
            ("kG", "symmetric:3"),
        ],
    )
    def test_battery_passes(self, kind, spec):
        inst = instance_for(kind, parse_group(spec))
        for res in check_mha_axioms(inst):
            assert res.outcome == "pass", (res.name, res.witnesses)

    @pytest.mark.parametrize("kind", ["antipode", "counit", "delta"])
    def test_each_mutation_fails_some_check(self, kind, AG_S3):
        bad = mutate_instance(AG_S3, kind)
        results = check_mha_axioms(bad)
        failed = [r.name for r in results if r.outcome == "fail"]
        assert failed, f"mutation {kind} slipped through the battery"

    def test_mutations_fail_on_group_algebra_too(self, kG_S3):
        for kind in ("antipode", "counit", "delta"):
            bad = mutate_instance(kG_S3, kind)
            assert any(r.outcome == "fail" for r in check_mha_axioms(bad))

    def test_unknown_mutation_rejected(self, AG_S3):
        with pytest.raises(StructuralError):
            mutate_instance(AG_S3, "verse")


class TestGenericFallback:
    def test_materialized_instance_matches_closed_forms(self, C2):
        closed = instance_for("A_G", C2)
        A = pointwise_algebra(C2)

        def delta(g):
            out = FinVec()
            for u in C2.elements:
                for v in C2.elements:
                    if C2.mul(u, v) == g:
                        out = out + FinVec.basis((u, v))
            return out

        generic = mha_from_delta(
            A,
            delta,
            lambda g: F(int(g == C2.identity)),
            lambda g: FinVec.basis(C2.inv(g)),
            name="materialized_A_C2",
        )
        for a in C2.elements:
            for b in C2.elements:
                assert generic.delta_r(a, b) == closed.delta_r(a, b)
                assert generic.delta_l(a, b) == closed.delta_l(a, b)
                assert generic.t1_inv(a, b) == closed.t1_inv(a, b)
                assert generic.t2_inv(a, b) == closed.t2_inv(a, b)
        for res in check_mha_axioms(generic):
            assert res.outcome == "pass", res.name

    def test_non_bijective_coverage_is_rejected(self, C2):
        A = pointwise_algebra(C2)
        with pytest.raises(StructuralError):
            mha_from_delta(
                A,
                lambda g: FinVec.basis((g, g)),
                lambda g: F(1),
                lambda g: FinVec.basis(g),
            )

    def test_materialized_S3_matches_closed_forms(self, S3, AG_S3):
        # non-abelian: the coverage inverses are non-identity permutations
        # of the pair tokens, read off one factored Span per coverage
        def delta(g):
            return FinVec(
                ((u, v), 1) for u in S3.elements for v in S3.elements if S3.mul(u, v) == g
            )

        generic = mha_from_delta(
            pointwise_algebra(S3),
            delta,
            lambda g: F(int(g == S3.identity)),
            lambda g: FinVec.basis(S3.inv(g)),
        )
        for a in S3.elements:
            for b in S3.elements:
                for rule in ("delta_r", "delta_l", "t1_inv", "t2_inv", "delta_r_flip",
                             "delta_l_flip"):
                    assert getattr(generic, rule)(a, b) == getattr(AG_S3, rule)(a, b), rule
        assert generic.t1_inv((0, 1, 2), (1, 2, 0)) == FinVec.basis(((1, 2, 0), (1, 2, 0)))
        assert generic.t2_inv((1, 0, 2), (1, 2, 0)) == FinVec.basis(((1, 0, 2), (0, 2, 1)))
        for res in check_mha_axioms(generic):
            assert res.outcome == "pass", res.name

    def test_inverse_table_in_a_non_monomial_basis(self):
        # functions on C2 in the basis e = delta_0, u = delta_0 + delta_1:
        # Delta(e) = e(x)e + (u-e)(x)(u-e), so T1 and T2 are not monomial
        B = FinVec.basis
        A = struct_const_algebra(
            "fun_C2_eu",
            ("e", "u"),
            {("e", "e"): B("e"), ("e", "u"): B("e"), ("u", "e"): B("e"), ("u", "u"): B("u")},
            one=B("u"),
        )
        deltas = {
            "e": FinVec({("e", "e"): 2, ("e", "u"): -1, ("u", "e"): -1, ("u", "u"): 1}),
            "u": B(("u", "u")),
        }
        generic = mha_from_delta(A, deltas.__getitem__, lambda t: F(1), B)
        mixed = deltas["e"]
        assert generic.t1_inv("e", "u") == mixed
        assert generic.t2_inv("u", "e") == mixed
        assert generic.t1_inv("u", "e") == B(("u", "e"))
        assert generic.t2_inv("e", "u") == B(("e", "u"))
        for res in check_mha_axioms(generic):
            assert res.outcome == "pass", res.name


class TestRegularOnPartialWindows:
    """check_regular on a window that does not exhaust a finite group:
    preimages are sought among the images of the product-enlarged window."""

    def test_function_algebra_passes(self, AG_S3):
        res = check_regular(AG_S3, 3)
        assert res.outcome == "pass"
        assert res.details == {"window": 3}

    def test_unhit_targets_are_inconclusive(self):
        kC4 = instance_for("kG", parse_group("cyclic:4"))
        res = check_regular(kC4, 2)
        assert res.outcome == "inconclusive"
        assert res.witnesses == []
        assert res.details == {
            "reason": [
                {"map": "flip_r", "not_hit": (0, 1)},
                {"map": "flip_l", "not_hit": (1, 0)},
            ]
        }

    def test_subgroup_window_passes(self):
        kC6 = instance_for("kG", parse_group("cyclic:6"))
        assert check_regular(kC6, (0, 2, 4)).outcome == "pass"

    def test_kernel_witnesses_on_a_partial_window(self, kG_S3):
        # the swap-symmetrised flip identifies (a,b) with (b,a)
        bad = kG_S3._replace(
            delta_r_flip=lambda a, b: FinVec.basis((a, b)) + FinVec.basis((b, a))
        )
        res = check_regular(bad, 3)
        assert res.outcome == "fail"
        e, t, s = (0, 1, 2), (0, 2, 1), (1, 0, 2)
        # cov_Sinv no longer inverts the swapped flip either
        assert res.witnesses == [
            {"map": "flip_r", "kernel": FinVec({(e, t): -1, (t, e): 1})},
            {"map": "flip_r", "kernel": FinVec({(e, s): -1, (s, e): 1})},
            {"map": "cov_Sinv o T1cop", "pair": (e, e), "value": FinVec({(e, e): 2})},
            {"map": "cov_Sinv o T1cop", "pair": (e, t),
             "value": FinVec({(e, t): 1, (t, t): 1})},
            {"map": "cov_Sinv o T1cop", "pair": (e, s),
             "value": FinVec({(e, s): 1, (s, s): 1})},
        ]


def test_wrong_cov_Sinv_fails_regular(AG_S3):
    # t1_inv in place of cov_Sinv: every other axiom still passes
    bad = AG_S3._replace(cov_Sinv=AG_S3.t1_inv)
    outcomes = {r.name: r for r in check_mha_axioms(bad)}
    assert [n for n, r in outcomes.items() if r.outcome != "pass"] == ["regular"]
    assert len(outcomes["regular"].witnesses) == 5
    assert {w["map"] for w in outcomes["regular"].witnesses} == {"cov_Sinv o T1cop"}


def test_check_regular_passes_on_S5():
    """Order 120: each flipped coverage is a Span of 14,400 images, which
    the occurrence index keeps to about a second."""
    res = check_regular(instance_for("A_G", symmetric_group(5)))
    assert res.outcome == "pass"
    assert res.details == {"window": 120}


@pytest.mark.parametrize("kind", ["A_G", "kG"])
def test_scalars_reaching_reports_stay_fractions(S3, kind):
    """Vectors store integral coefficients as ints, but a scalar handed to
    a report outside a vector stays a Fraction, which renders as a JSON
    string where an int would render as a number."""
    inst = instance_for(kind, S3)
    e = S3.identity
    for g in S3.elements:
        assert type(inst.counit(g)) is F
        assert type(inst.counit_vec(FinVec.basis(g))) is F
    assert type(inst.counit_vec(FinVec())) is F
    # coordinates reach a report only inside a vector, whose rendering is
    # the same for an int and an integral Fraction
    coords = Span([FinVec.basis(e)]).coords(FinVec.basis(e, F(2)), ["g"])
    assert coords == FinVec.basis("g", 2) and render_value(coords) == "2*g"

    result = check_counit_homomorphism(mutate_instance(inst, "counit"))
    first = json.dumps(result.to_dict()["witnesses"][0], sort_keys=True)
    assert first == '{"eps(a)eps(b)": "4", "eps(ab)": "2", "pair": [[0, 1, 2], [0, 1, 2]]}'
    witness = {"pair": (e, e), "eps(ab)": inst.counit_vec(FinVec.basis(e)), "count": 2}
    assert render_value(witness) == {"count": 2, "eps(ab)": "1", "pair": [[0, 1, 2], [0, 1, 2]]}


def test_coverage_bijections_keeps_its_first_four_witnesses():
    """One pair can fail all four compositions; the cap still keeps
    exactly the first four failures in checking order."""
    broken = mutate_instance(instance_for("A_G", parse_group("cyclic:4")), "delta")
    result = check_coverage_bijections(broken)
    assert [(w["map"], w["pair"]) for w in result.witnesses] == [
        ("t1_inv o T1", (0, 1)), ("T1 o t1_inv", (0, 1)),
        ("T1 o t1_inv", (0, 2)), ("t1_inv o T1", (0, 3))]
