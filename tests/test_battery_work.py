"""How much work a law battery does, counted without a clock.

`check_enveloping` computes every product that does not depend on the
outer acting token once per call, and projects per acting token only
where `pi_a_projection`'s two products differ; `check_partial_action`
and `check_symmetric` compute the inner product of their product laws
once per (b, x, y); `check_convolution` computes each pair product
once for both of its lines, and each product sums its target products
straight into the finished table through `vectors.graded_mul`, with no
`Algebra.mul`; `check_module_algebra` computes each distinct product of
its covered product law once, and the local unit of each sample once;
`check_coassociativity` and `check_coverage_bijections` evaluate each
coverage rule once per window pair, and `check_partial_coaction` each
covered coaction rule.
These counts pin that, so per-token work that comes back shows here as
a number, not as a slower benchmark.
"""

import random
from collections import Counter

import pytest

from mhopf import homr
from mhopf.algebras import Algebra, Corner, group_algebra_plain, subgroup_average_idempotent
from mhopf.coactions import check_partial_coaction, trivial_coaction
from mhopf.groups import alternating_elements, cyclic_group, subgroup_elements, symmetric_group
from mhopf.mha import check_coassociativity, check_coverage_bijections, instance_for
from mhopf.partial_actions import (
    check_enveloping,
    check_partial_action,
    check_symmetric,
    example_fN,
    globalize,
)
from mhopf.scenarios import _random_hom_samples
from mhopf.vectors import FinVec


def counted_envelope(G, counts):
    """G with its envelope algebra's basis product and its projection
    counted in `counts`."""
    def mul_basis(p, q, _inner=G.algebra.mul_basis):
        counts["mul_basis"] += 1
        return _inner(p, q)

    def pi_rule(v, _inner=G.pi_rule):
        counts["pi_rule"] += 1
        return _inner(v)

    return G._replace(algebra=G.algebra._replace(mul_basis=mul_basis), pi_rule=pi_rule)


ENVELOPES = {
    "S3": lambda: example_fN(symmetric_group(3), alternating_elements(3)),
    "C8": lambda: example_fN(cyclic_group(8), subgroup_elements(cyclic_group(8), "generated:[2]")),
}


@pytest.mark.parametrize("group, want", [
    ("S3", {"mul_basis": 468, "pi_rule": 38}),
    ("C8", {"mul_basis": 960, "pi_rule": 50}),
])
def test_enveloping_work(group, want):
    G = globalize(ENVELOPES[group]())
    counts = Counter()
    results = check_enveloping(counted_envelope(G, counts))
    assert all(r.outcome == "pass" for r in results)
    assert dict(counts) == want


@pytest.mark.parametrize("group, want", [("S3", 96), ("C8", 160)])
def test_partial_action_work(group, want):
    P = ENVELOPES[group]()
    counts = Counter()

    def mul_basis(p, q, _inner=P.algebra.mul_basis):
        counts["mul_basis"] += 1
        return _inner(p, q)

    P = P._replace(algebra=P.algebra._replace(mul_basis=mul_basis))
    results = check_partial_action(P) + check_symmetric(P)
    assert all(r.outcome == "pass" for r in results)
    assert counts["mul_basis"] == want


def test_conv_associative_pair_products_once(monkeypatch):
    calls = Counter()
    exact, exact_generic, exact_alg_mul = homr.conv_mul, homr.conv_mul_generic, Algebra.mul

    def conv_mul(M, R, F, G):
        calls["conv_mul"] += 1
        return exact(M, R, F, G)

    def mul(*args):
        calls["Algebra.mul"] += 1
        return exact_alg_mul(*args)

    def conv_mul_generic(M, R, F, G):
        # the coverage path's own target products are not counted
        calls["conv_mul_generic"] += 1
        with monkeypatch.context() as inner:
            inner.setattr(Algebra, "mul", exact_alg_mul)
            return exact_generic(M, R, F, G)

    S3 = symmetric_group(3)
    source, target = instance_for("A_G", S3), group_algebra_plain(S3)
    samples = _random_hom_samples(random.Random(5), source, target, 5)
    monkeypatch.setattr(homr, "conv_mul", conv_mul)
    monkeypatch.setattr(homr, "conv_mul_generic", conv_mul_generic)
    monkeypatch.setattr(Algebra, "mul", mul)
    results = homr.check_convolution(source, target, samples)
    assert [(r.name, r.outcome) for r in results] == [
        ("conv_associative", "pass"), ("conv_paths_agree", "pass")]
    # 25 pair products, then two products per triple; the 25 pair
    # products are compared with the coverage path, not recomputed, and
    # none of the closed products builds a target product per table pair
    assert dict(calls) == {"conv_mul": 25 + 2 * 125, "conv_mul_generic": 25}


def test_module_algebra_products_once(monkeypatch):
    calls = Counter()
    exact = homr.conv_mul

    def conv_mul(M, R, F, G):
        calls["conv_mul"] += 1
        return exact(M, R, F, G)

    S3 = symmetric_group(3)
    source, target = instance_for("A_G", S3), group_algebra_plain(S3)
    samples = _random_hom_samples(random.Random(11), source, target, 5)
    monkeypatch.setattr(homr, "conv_mul", conv_mul)
    results = homr.check_module_algebra(source, target, samples=samples)
    assert all(r.outcome == "pass" for r in results)
    # the distinct products of `covered_product_law` on these samples
    # (window 6): 600 calls before its products were tabled
    assert dict(calls) == {"conv_mul": 265}


def test_module_algebra_local_units_once(monkeypatch):
    calls = Counter()
    exact = homr.local_unit

    def local_unit(*args):
        calls["local_unit"] += 1
        return exact(*args)

    S3 = symmetric_group(3)
    source, target = instance_for("A_G", S3), group_algebra_plain(S3)
    samples = _random_hom_samples(random.Random(11), source, target, 5)
    monkeypatch.setattr(homr, "local_unit", local_unit)
    results = homr.check_module_algebra(source, target, samples=samples)
    assert all(r.outcome == "pass" for r in results)
    # one per nonzero sample: 30 calls when `covered_product_law` asked
    # again for every pair of samples
    assert sum(1 for F in samples if F) == 5
    assert dict(calls) == {"local_unit": 5}


COVERAGE_RULES = ("delta_r", "delta_l", "t1_inv", "t2_inv")


def counted_rules(instance, counts):
    """`instance` with each coverage rule counting its calls per pair."""
    def counted(name):
        rule = getattr(instance, name)

        def wrapped(a, b):
            counts[name, a, b] += 1
            return rule(a, b)

        return wrapped

    return instance._replace(**{name: counted(name) for name in COVERAGE_RULES})


@pytest.mark.parametrize("kind", ["A_G", "kG"])
@pytest.mark.parametrize("group", [cyclic_group(6), symmetric_group(3)], ids=["C6", "S3"])
@pytest.mark.parametrize("check, rules", [
    (check_coassociativity, ("delta_l", "delta_r")),
    (check_coverage_bijections, COVERAGE_RULES),
], ids=["coassociativity", "coverage_bijections"])
def test_coverage_rules_once_per_pair(kind, group, check, rules):
    counts = Counter()
    result = check(counted_rules(instance_for(kind, group), counts))
    assert result.outcome == "pass"
    assert max(counts.values()) == 1
    per_rule = Counter(name for name, _, _ in counts.elements())
    # 36 window pairs; before the rules were tabled, coassociativity made
    # 432 calls of each rule on these groups and coverage_bijections 72
    assert dict(per_rule) == {name: 36 for name in rules}


def test_coaction_rules_once_per_pair():
    S3 = symmetric_group(3)
    kS3 = group_algebra_plain(S3)
    corner = Corner(kS3, subgroup_average_idempotent(kS3, alternating_elements(3)))
    C = trivial_coaction(corner.algebra, instance_for("A_G", S3), FinVec.basis(S3.identity))
    counts = Counter()

    def counted(name, rule):
        def wrapped(x, y):
            counts[name, x, y] += 1
            return rule(x, y)

        return wrapped

    C = C._replace(rho_r=counted("rho_r", C.rho_r), rho_l=counted("rho_l", C.rho_l))
    assert all(r.outcome == "pass" for r in check_partial_coaction(C))
    assert max(counts.values()) == 1
    # 2 corner tokens times 6 covers; 244 and 168 calls before the rules
    # were tabled
    per_rule = Counter(name for name, _, _ in counts.elements())
    assert dict(per_rule) == {"rho_r": 12, "rho_l": 12}
