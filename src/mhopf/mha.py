"""Multiplier Hopf algebra instances with covered comultiplication.

The comultiplication never appears bare: an instance stores rules on basis
tokens that produce honest tensors after covering by an element.  Every
instance stores the two bijective coverage maps

    T1: a (x) b  |->  Delta(a)(1 (x) b)        (rule delta_r)
    T2: a (x) b  |->  (a (x) 1) Delta(b)       (rule delta_l)

with their inverses t1_inv/t2_inv, the counit and the antipode.  The
antipode is read off T1: t1_inv(a (x) b) = sum a_1 (x) S(a_2) b.  A
regular instance also stores the flipped coverages

    delta_r_flip: a (x) b  |->  Delta(a)(b (x) 1)
    delta_l_flip: a (x) b  |->  (1 (x) a) Delta(b)

the inverse antipode, and cov_Sinv(a (x) b) = sum a_2 (x) S^{-1}(a_1) b,
which inverts T1 of (A, Delta^cop), a (x) b |-> sum a_2 (x) a_1 b: that is
delta_r_flip with its legs swapped.  `check_coverage_bijections` checks
t1_inv and t2_inv; `check_regular` checks the flips, S^{-1} and cov_Sinv.

A covered law composes these rules as leg maps (`vectors.on_legs`):
coassociativity is (T2 (x) i)(i (x) T1) = (i (x) T1)(T2 (x) i) on
A (x) A (x) A.  Two families ship in closed form: finitely supported
functions on a group under pointwise product, and the group algebra; a
generic windowed-inversion fallback builds instances from materialized
structure constants for finite unital algebras.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Optional

from . import spans
from .algebras import Algebra, group_algebra_plain, pointwise_algebra
from .errors import CapabilityError, StructuralError
from .groups import GroupSpec
from .reports import CheckResult
from .vectors import FinVec, linear, on_legs, once_per_pair, tensor, token_key

PairRule = Callable[[object, object], FinVec]


class MhaInstance(NamedTuple):
    name: str
    algebra: Algebra
    delta_r: PairRule
    delta_l: PairRule
    t1_inv: PairRule
    t2_inv: PairRule
    counit: Callable[[object], Fraction]
    antipode: Callable[[object], FinVec]
    antipode_inv: Optional[Callable[[object], FinVec]]
    delta_r_flip: Optional[PairRule]
    delta_l_flip: Optional[PairRule]
    cov_Sinv: Optional[PairRule]

    def is_regular(self) -> bool:
        return (
            self.antipode_inv is not None
            and self.delta_r_flip is not None
            and self.delta_l_flip is not None
            and self.cov_Sinv is not None
        )

    def basis_window(self, window=None):
        return self.algebra.basis_window(window)

    def counit_vec(self, x: FinVec) -> Fraction:
        return sum((c * self.counit(t) for t, c in x.items()), Fraction(0))

    def antipode_vec(self, x: FinVec) -> FinVec:
        return linear(self.antipode)(x)

    def antipode_inv_vec(self, x: FinVec) -> FinVec:
        if self.antipode_inv is None:
            raise CapabilityError(f"{self.name} has no inverse antipode")
        return linear(self.antipode_inv)(x)


def function_algebra(group: GroupSpec) -> MhaInstance:
    """Finitely supported functions on a group; Delta(f)(p,q) = f(pq)."""
    mul, inv, e = group.mul, group.inv, group.identity

    return MhaInstance(
        name=f"A_G:{group.name}",
        algebra=pointwise_algebra(group),
        delta_r=lambda r, q: FinVec.basis((mul(r, inv(q)), q)),
        delta_l=lambda p, r: FinVec.basis((p, mul(inv(p), r))),
        t1_inv=lambda s, q: FinVec.basis((mul(s, q), q)),
        t2_inv=lambda p, s: FinVec.basis((p, mul(p, s))),
        counit=lambda g: Fraction(1) if g == e else Fraction(0),
        antipode=lambda g: FinVec.basis(inv(g)),
        antipode_inv=lambda g: FinVec.basis(inv(g)),
        delta_r_flip=lambda r, b: FinVec.basis((b, mul(inv(b), r))),
        delta_l_flip=lambda a, r: FinVec.basis((mul(r, inv(a)), a)),
        cov_Sinv=lambda p, q: FinVec.basis((mul(q, p), q)),
    )


def group_algebra(group: GroupSpec) -> MhaInstance:
    """Group algebra with group-like comultiplication Delta(g) = g (x) g."""
    mul, inv = group.mul, group.inv

    return MhaInstance(
        name=f"kG:{group.name}",
        algebra=group_algebra_plain(group),
        delta_r=lambda g, b: FinVec.basis((g, mul(g, b))),
        delta_l=lambda a, g: FinVec.basis((mul(a, g), g)),
        t1_inv=lambda g, h: FinVec.basis((g, mul(inv(g), h))),
        t2_inv=lambda h, g: FinVec.basis((mul(h, inv(g)), g)),
        counit=lambda g: Fraction(1),
        antipode=lambda g: FinVec.basis(inv(g)),
        antipode_inv=lambda g: FinVec.basis(inv(g)),
        delta_r_flip=lambda g, b: FinVec.basis((mul(g, b), g)),
        delta_l_flip=lambda a, g: FinVec.basis((g, mul(a, g))),
        cov_Sinv=lambda g, h: FinVec.basis((g, mul(inv(g), h))),
    )


def instance_for(kind: str, group: GroupSpec) -> MhaInstance:
    if kind == "A_G":
        return function_algebra(group)
    if kind == "kG":
        return group_algebra(group)
    raise StructuralError(f"unknown instance kind {kind!r}")


def mha_from_delta(
    algebra: Algebra,
    delta: Callable[[object], FinVec],
    counit: Callable[[object], Fraction],
    antipode: Callable[[object], FinVec],
    name: str = "structconsts",
) -> MhaInstance:
    """Generic instance from a materialized comultiplication.

    Only for finite-dimensional algebras: coverage inverses are computed by
    exact inversion of T1 and T2 on the full pair span; raises
    StructuralError when a coverage map is not bijective.
    """
    if algebra.basis is None:
        raise CapabilityError("materialized comultiplication needs a finite basis")
    basis = algebra.basis
    deltas = {a: delta(a) for a in basis}
    mul = algebra.mul_basis

    # one leg of Delta(a) or Delta(b) multiplied by the other token
    delta_r = lambda a, b: on_legs(lambda v: tensor(mul(v, b)), deltas[a], 1, 2)
    delta_l = lambda a, b: on_legs(lambda u: tensor(mul(a, u)), deltas[b], 0, 1)
    delta_r_flip = lambda a, b: on_legs(lambda u: tensor(mul(u, b)), deltas[a], 0, 1)
    delta_l_flip = lambda a, b: on_legs(lambda v: tensor(mul(a, v)), deltas[b], 1, 2)

    pair_tokens = [(a, b) for a in basis for b in basis]

    def invert_map(rule: PairRule, label: str) -> PairRule:
        span = spans.Span(rule(*p) for p in pair_tokens)
        if span.rank < len(pair_tokens):
            raise StructuralError(f"coverage map {label} is not injective")
        table = {}
        for target in pair_tokens:
            coeffs = span.coords(FinVec.basis(target), pair_tokens)
            if coeffs is None:
                raise StructuralError(f"coverage map {label} is not surjective")
            table[target] = coeffs
        return lambda a, b: table[(a, b)]

    t1_inv = invert_map(delta_r, "T1")
    t2_inv = invert_map(delta_l, "T2")

    return MhaInstance(
        name=name,
        algebra=algebra,
        delta_r=delta_r,
        delta_l=delta_l,
        t1_inv=t1_inv,
        t2_inv=t2_inv,
        counit=counit,
        antipode=antipode,
        antipode_inv=None,
        delta_r_flip=delta_r_flip,
        delta_l_flip=delta_l_flip,
        cov_Sinv=None,
    )


def mutate_instance(instance: MhaInstance, kind: str) -> MhaInstance:
    """Deterministic corruptions used by fail fixtures and mutation tests."""
    if kind == "antipode":
        return instance._replace(
            name=instance.name + "~antipode",
            antipode=lambda g: FinVec.basis(g),
            antipode_inv=lambda g: FinVec.basis(g),
        )
    if kind == "counit":
        base = instance.counit
        return instance._replace(
            name=instance.name + "~counit",
            counit=lambda g: base(g) + 1,
        )
    if kind == "delta":
        base_rule = instance.delta_r
        return instance._replace(
            name=instance.name + "~delta",
            delta_r=lambda a, b: base_rule(a, b).map_tokens(lambda p: (p[1], p[0])),
        )
    raise StructuralError(f"unknown mutation {kind!r}")


def check_coassociativity(instance: MhaInstance, window=None) -> CheckResult:
    """(T2 (x) i)(i (x) T1) == (i (x) T1)(T2 (x) i) on each window triple
    a (x) b (x) c: T2(a (x) .) on leg 0 of T1(b (x) c) against T1(. (x) c)
    on leg 1 of T2(a (x) b).  T1 and T2 are tabulated for the call, each
    pair evaluated once, filling on demand: a composed token can leave a
    partial window."""
    window = instance.basis_window(window)
    t1 = once_per_pair(instance.delta_r)
    t2 = once_per_pair(instance.delta_l)
    t1_by = {c: (lambda t, c=c: t1(t, c)) for c in window}
    witnesses = []
    for a in window:
        t2_a = partial(t2, a)
        for b in window:
            t2_ab = t2(a, b)
            for c in window:
                lhs = on_legs(t2_a, t1(b, c), 0, 1)
                rhs = on_legs(t1_by[c], t2_ab, 1, 2)
                if lhs != rhs:
                    witnesses.append({"triple": (a, b, c), "lhs": lhs, "rhs": rhs})
                    if len(witnesses) >= 3:
                        return CheckResult.law("coassociativity", witnesses)
    return CheckResult.law("coassociativity", witnesses, triples=len(window) ** 3)


def check_counit(instance: MhaInstance, window=None) -> CheckResult:
    """(eps (x) i)(Delta(a)(1 (x) b)) == ab == (i (x) eps)((a (x) 1)Delta(b))."""
    window = instance.basis_window(window)
    eps = instance.counit
    witnesses = []
    for a in window:
        for b in window:
            prod = instance.algebra.mul_basis(a, b)
            left = linear(lambda uv: FinVec.basis(uv[1], eps(uv[0])))(instance.delta_r(a, b))
            right = linear(lambda uv: FinVec.basis(uv[0], eps(uv[1])))(instance.delta_l(a, b))
            if left != prod or right != prod:
                witnesses.append(
                    {"pair": (a, b), "left": left, "right": right, "product": prod}
                )
                if len(witnesses) >= 3:
                    return CheckResult.law("counit", witnesses)
    return CheckResult.law("counit", witnesses, pairs=len(window) ** 2)


def check_counit_homomorphism(instance: MhaInstance, window=None) -> CheckResult:
    window = instance.basis_window(window)
    witnesses = []
    for a in window:
        for b in window:
            lhs = instance.counit_vec(instance.algebra.mul_basis(a, b))
            rhs = instance.counit(a) * instance.counit(b)
            if lhs != rhs:
                witnesses.append({"pair": (a, b), "eps(ab)": lhs, "eps(a)eps(b)": rhs})
                if len(witnesses) >= 3:
                    return CheckResult.law("counit_homomorphism", witnesses)
    return CheckResult.law("counit_homomorphism", witnesses, pairs=len(window) ** 2)


def check_antipode(instance: MhaInstance, window=None) -> CheckResult:
    """m(S (x) i)(Delta(a)(1 (x) b)) == eps(a) b and the mirrored law."""
    window = instance.basis_window(window)
    A, S = instance.algebra, instance.antipode
    witnesses = []
    for a in window:
        for b in window:
            lhs = linear(lambda uv: A.mul(S(uv[0]), FinVec.basis(uv[1])))(instance.delta_r(a, b))
            expected = FinVec.basis(b, instance.counit(a))
            rhs = linear(lambda uv: A.mul(FinVec.basis(uv[0]), S(uv[1])))(instance.delta_l(a, b))
            expected_r = FinVec.basis(a, instance.counit(b))
            if lhs != expected or rhs != expected_r:
                witnesses.append(
                    {"pair": (a, b), "left": lhs, "left_expected": expected,
                     "right": rhs, "right_expected": expected_r}
                )
                if len(witnesses) >= 3:
                    return CheckResult.law("antipode", witnesses)
    return CheckResult.law("antipode", witnesses, pairs=len(window) ** 2)


def check_antipode_antihomomorphism(instance: MhaInstance, window=None) -> CheckResult:
    window = instance.basis_window(window)
    witnesses = []
    for a in window:
        for b in window:
            lhs = instance.antipode_vec(instance.algebra.mul_basis(a, b))
            rhs = instance.algebra.mul(instance.antipode(b), instance.antipode(a))
            if lhs != rhs:
                witnesses.append({"pair": (a, b), "S(ab)": lhs, "S(b)S(a)": rhs})
                if len(witnesses) >= 3:
                    return CheckResult.law("antipode_antihomomorphism", witnesses)
    return CheckResult.law("antipode_antihomomorphism", witnesses, pairs=len(window) ** 2)


def check_coverage_bijections(instance: MhaInstance, window=None) -> CheckResult:
    """T1 o t1_inv = id = t1_inv o T1 and the T2 versions, on window pairs:
    each map composed with its inverse on both legs of A (x) A.  Every
    rule is tabulated for the call, each pair evaluated once.  The first
    four failures in checking order are the witnesses."""
    window = instance.basis_window(window)
    t1, t1_inv = once_per_pair(instance.delta_r), once_per_pair(instance.t1_inv)
    t2, t2_inv = once_per_pair(instance.delta_l), once_per_pair(instance.t2_inv)
    compositions = (("t1_inv o T1", t1_inv, t1), ("T1 o t1_inv", t1, t1_inv),
                    ("t2_inv o T2", t2_inv, t2), ("T2 o t2_inv", t2, t2_inv))
    witnesses = []
    for a in window:
        for b in window:
            unit = FinVec.basis((a, b))
            for label, outer, inner in compositions:
                value = on_legs(outer, inner(a, b), 0, 2)
                if value != unit:
                    witnesses.append({"map": label, "pair": (a, b), "value": value})
            if len(witnesses) >= 4:
                return CheckResult.law("coverage_bijections", witnesses[:4])
    return CheckResult.law("coverage_bijections", witnesses, pairs=len(window) ** 2)


def check_regular(instance: MhaInstance, window=None) -> CheckResult:
    """Bijectivity of the flipped coverage maps on the window span, cov_Sinv
    inverting T1cop: a (x) b |-> sum a_2 (x) a_1 b (delta_r_flip with its
    legs swapped) on both sides at each window pair, and
    S o S^{-1} = id = S^{-1} o S on the window.

    Each flipped coverage is factored once as a `spans.Span` of its images
    of the window pairs, taken in `token_key` order; its recorded
    dependencies are the kernel witnesses, so injectivity is exact on the
    window span.  When the window exhausts a finite basis, the same Span
    decides surjectivity, and an unhit window pair is a genuine failure.
    Otherwise surjectivity is decided against one Span of the images of a
    product-enlarged window, and an unhit target makes the verdict
    inconclusive (its preimage may live outside any finite window).
    """
    if not instance.is_regular():
        return CheckResult.law(
            "regular", [{"missing": "flipped coverages, inverse antipode or cov_Sinv"}])
    window = instance.basis_window(window)
    exhaustive = instance.algebra.is_finite() and set(window) == set(
        instance.algebra.basis
    )
    sources = list(window)
    if not exhaustive:
        seen = set(sources)
        group = instance.algebra.group
        if group is not None:
            for a in window:
                for b in window:
                    p = group.mul(a, b)
                    if p not in seen:
                        seen.add(p)
                        sources.append(p)
    pair_tokens = [(a, b) for a in window for b in window]
    sorted_pairs = sorted(pair_tokens, key=token_key)
    source_pairs = [(a, b) for a in sources for b in sources]
    witnesses = []
    unresolved = []
    for label, rule in (("flip_r", instance.delta_r_flip), ("flip_l", instance.delta_l_flip)):
        span = spans.Span(rule(*p) for p in sorted_pairs)
        for v in span.kernel(sorted_pairs)[:2]:
            witnesses.append({"map": label, "kernel": v})
        if not exhaustive:
            span = spans.Span(rule(*p) for p in source_pairs)
        for target in pair_tokens:
            if not span.contains(FinVec.basis(target)):
                (witnesses if exhaustive else unresolved).append(
                    {"map": label, "not_hit": target})
                break
    t1cop = lambda a, b: instance.delta_r_flip(a, b).map_tokens(lambda uv: (uv[1], uv[0]))
    for label, outer, inner in (("cov_Sinv o T1cop", instance.cov_Sinv, t1cop),
                                ("T1cop o cov_Sinv", t1cop, instance.cov_Sinv)):
        for a, b in pair_tokens:
            value = on_legs(outer, inner(a, b), 0, 2)
            if value != FinVec.basis((a, b)):
                witnesses.append({"map": label, "pair": (a, b), "value": value})
    for g in window:
        gv = FinVec.basis(g)
        if instance.antipode_inv_vec(instance.antipode(g)) != gv:
            witnesses.append({"law": "Sinv o S", "element": g})
        if instance.antipode_vec(instance.antipode_inv(g)) != gv:
            witnesses.append({"law": "S o Sinv", "element": g})
    return CheckResult.law(
        "regular", witnesses[:5], unresolved=unresolved[:5], window=len(window))


def check_mha_axioms(instance: MhaInstance, window=None) -> list[CheckResult]:
    """The full axiom battery on one window."""
    results = [
        check_coassociativity(instance, window),
        check_counit(instance, window),
        check_counit_homomorphism(instance, window),
        check_antipode(instance, window),
        check_antipode_antihomomorphism(instance, window),
        check_coverage_bijections(instance, window),
    ]
    if instance.is_regular():
        results.append(check_regular(instance, window))
    return results
