"""Standard envelopes of symmetric partial actions and their minimality."""

from fractions import Fraction

import pytest

from mhopf.algebras import Multiplier
from mhopf.errors import StructuralError
from mhopf.groups import alternating_elements
from mhopf.partial_actions import (
    Globalization,
    check_enveloping,
    check_minimal,
    check_partial_action,
    check_symmetric,
    compare_envelopes,
    example_fN,
    globalize,
    junk_globalization,
)
from mhopf.scenarios import Context, build_structure
from mhopf.vectors import FinVec

F = Fraction


def with_zero_pi(G: Globalization) -> Globalization:
    return G._replace(name=G.name + "~zero-pi", pi_rule=lambda v: FinVec())


@pytest.fixture(scope="module")
def action(S3):
    return example_fN(S3, alternating_elements(3))


@pytest.fixture(scope="module")
def envelope(action):
    return globalize(action)


class TestEnvelope:
    def test_theta_tables_are_translates(self, envelope, action, S3):
        # theta(x) collapses to the table g -> delta_g . x.
        for x in action.algebra.basis:
            vec = envelope.theta_map[x]
            for g in S3.elements:
                slice_g = FinVec(
                    (t, c) for (h, t), c in vec.items() if h == g)
                assert slice_g == action.act(g, x)

    def test_theta_intertwines_action_through_pi(self, envelope, action, S3):
        count = 0
        for a in S3.elements:
            for x in action.algebra.basis:
                lhs = envelope.theta(action.act(a, x))
                rhs = envelope.pi(
                    envelope.act_vec(FinVec.basis(a), envelope.theta_map[x]))
                assert lhs == rhs, (a, x)
                count += 1
        assert count == 6 * len(action.algebra.basis)

    def test_enveloping_battery_passes(self, envelope):
        for res in check_enveloping(envelope):
            assert res.outcome == "pass", (res.name, res.witnesses)

    def test_minimality(self, envelope):
        assert check_minimal(envelope).outcome == "pass"

    def test_theta_right_ideal_directly(self, envelope, action):
        # theta(L) R_gen stays inside theta(L).
        from mhopf import spans

        theta_span = spans.Span(envelope.theta_map[x] for x in action.algebra.basis)
        for x in action.algebra.basis:
            for v in envelope.generators:
                prod = envelope.algebra.mul(envelope.theta_map[x], v)
                assert theta_span.contains(prod)

    def test_broken_action_rejected(self, action):
        # the scenario runner, not globalize, owns the precondition: every
        # line of partial_action and symmetric that is not pass is named
        broken = action._replace(
            e_map=lambda a: Multiplier.scalar(action.algebra, 1))
        want = [f"partial_action:P.{r.name}" for r in check_partial_action(broken)
                if r.outcome != "pass"]
        want += [f"symmetric:P.{r.name}" for r in check_symmetric(broken)
                 if r.outcome != "pass"]
        assert want
        ctx = Context("broken")
        ctx.add("P", broken)
        entry = {"id": "env", "type": "envelope", "constructor": "globalize", "action": "P"}
        with pytest.raises(StructuralError) as exc:
            build_structure(ctx, entry)
        assert str(exc.value) == "input 'P' rejected: " + ", ".join(want)
        assert "env" not in ctx.objects


class TestMinimalityContrast:
    def test_junk_envelope_fails_minimality(self, action):
        junk = junk_globalization(action)
        res = check_minimal(junk)
        assert res.outcome == "fail"
        for w in res.witnesses:
            v = w["v"]
            assert not v.is_zero()
            assert junk.pi(v).is_zero()

    def test_comparison_exposes_nonzero_kernel(self, envelope, action):
        junk = junk_globalization(action)
        results = compare_envelopes(junk, envelope)
        by_name = {r.name: r for r in results}
        assert by_name["well_defined"].outcome == "pass"
        assert by_name["injective"].outcome == "fail"
        w = by_name["injective"].witnesses[0]
        assert not w["kernel_element"].is_zero()

    def test_zero_pi_replaces_only_name_and_pi(self, envelope):
        crippled = with_zero_pi(envelope)
        assert type(crippled) is type(envelope)
        kept = set(envelope._fields) - {"name", "pi_rule"}
        assert all(getattr(crippled, f) is getattr(envelope, f) for f in kept)

    def test_zero_pi_fails_battery(self, envelope):
        crippled = with_zero_pi(envelope)
        results = check_enveloping(crippled)
        by_name = {r.name: r for r in results}
        assert by_name["theta_pi_equivalence"].outcome == "fail"
        assert check_minimal(crippled).outcome == "fail"


class TestIsomorphicEnvelopes:
    def test_relabelled_copy_matched_bijectively(self, envelope, relabel):
        other = relabel(
            envelope, lambda t: ("shifted", t), name="envelope-copy")
        for res in check_enveloping(other):
            assert res.outcome == "pass", (res.name, res.witnesses)
        assert check_minimal(other).outcome == "pass"
        results = compare_envelopes(envelope, other)
        for res in results:
            assert res.outcome == "pass", (res.name, res.witnesses)
        names = [r.name for r in results]
        assert "well_defined" in names and "injective" in names
        assert "homomorphism" in names and "module_map" in names

    def test_relabelling_must_be_injective(self, envelope, relabel):
        with pytest.raises(StructuralError, match="injective"):
            relabel(envelope, lambda t: "same")

    def test_comparing_unrelated_actions_rejected(self, envelope, S3):
        other_action = example_fN(S3, (S3.identity,))
        other = globalize(other_action)
        with pytest.raises(StructuralError):
            compare_envelopes(envelope, other)
