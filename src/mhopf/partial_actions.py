"""Partial module algebras, projections, and globalization.

A partial action of a multiplier Hopf algebra on a nonunital algebra is a
bilinear rule a, x |-> a.x together with a multiplier map e: A -> M(L)
correcting the failure of the global module-algebra laws.  Everything that
normally needs a bare comultiplication is phrased through the covered
expansions, so all checks are finite exact computations:

    (i)    a.(x (b.y))   = sum (a_1 . x)(a_2 b . y)
    (ii)   e(a)(b.x)     = sum a_1 . (S(a_2) b . x),   e(A) L within A.L
    (iii)  local units:  a_i b = a_i = b a_i  and  a_i.x_j = a_i.(b.x_j)
    (iv)   A.x = 0  only for x = 0
    (v)    a.((b.x) y)   = sum (a_1 b . x)(a_2 . y)
    (vi)   (b.x) e(a)    = sum a_2 . (S^{-1}(a_1) b . x)
    (vii)  L e(A) within A.L

Law (ii) reads T1^{-1}, the instance's t1_inv, since T1^{-1}(a (x) b) =
sum a_1 (x) S(a_2) b; laws (v)-(vii) are (i)-(ii) read through the flipped
coverage, delta_r_flip and cov_Sinv.  Each law shape is stated once, for
either side: `_covered_product_failures`, `_compatibility_failures` and
`_span_failures`.

The action is global exactly when e(a) = eps(a) 1, so a global module
algebra is a partial action whose e gives counit scalars.  Every battery
acts through the window of the acting instance, `instance.basis_window`.

The globalization machinery realizes the target inside a module algebra of
finitely supported functions: theta(x) has table g |-> delta_g . x, the
envelope is spanned by translates a |> theta(x), and the projection
collapses a table back into the target.

The bilinear extension `act_vec` of a basis rule `act` is the module
function `_act_vec`, bound as a method in `PartialActionData` and
`Globalization`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from . import spans
from .algebras import (
    Algebra,
    Corner,
    Multiplier,
    convolution_algebra,
    group_algebra_plain,
    multiplier_check,
    subgroup_average_idempotent,
)
from .errors import CapabilityError, StructuralError
from .groups import GroupSpec, closure, is_normal
from .homr import module_act, require_tables
from .mha import MhaInstance, function_algebra
from .reports import CheckResult
from .vectors import FinVec, bilinear, from_grades, linear, once_per_pair, token_key

ActRule = Callable[[object, object], FinVec]

# candidates an indicator search tries before it gives up
MAX_CANDIDATES = 2048


def _act_vec(self, a: FinVec, x: FinVec) -> FinVec:
    """Bilinear extension of `self.act`; a bare acting token `a` counts as
    its basis vector."""
    if not isinstance(a, FinVec):
        a = FinVec.basis(a)
    return bilinear(self.act)(a, x)


class PartialActionData(NamedTuple):
    name: str
    instance: MhaInstance
    algebra: Algebra
    act: ActRule
    e_map: Callable[[object], Multiplier]
    aux: Mapping = MappingProxyType({})

    act_vec = _act_vec


class AProjection(NamedTuple):
    """Multiplication by a central idempotent `idem` of the acted algebra,
    with a basis of its image."""

    context: PartialActionData
    idem: FinVec
    image: tuple

    def rule(self, v: FinVec) -> FinVec:
        return self.context.algebra.mul(self.idem, v)


class Globalization(NamedTuple):
    name: str
    action: PartialActionData
    algebra: Algebra
    act: ActRule
    theta_map: dict
    pi_rule: Callable[[FinVec], FinVec]
    generators: tuple
    gen_labels: tuple

    act_vec = _act_vec

    def theta(self, x: FinVec) -> FinVec:
        return linear(self.theta_map.__getitem__)(x)

    def pi(self, v: FinVec) -> FinVec:
        return self.theta(self.pi_rule(v))


def search_indicator_witness(ground, predicate, max_candidates=MAX_CANDIDATES):
    """Smallest-support-first search for an indicator element.

    Candidates are sums of basis tokens over subsets of the ground window,
    ordered by (size, lexicographic token order).  Returns (witness, True)
    on success, (None, True) when the full subset lattice was exhausted,
    (None, False) when the candidate cap stopped the search early.
    """
    ground = sorted(set(ground), key=token_key)
    tried = 0
    for size in range(1, len(ground) + 1):
        for combo in itertools.combinations(ground, size):
            if tried >= max_candidates:
                return None, False
            tried += 1
            b = FinVec((g, 1) for g in combo)
            if predicate(b):
                return b, True
    return None, True


def indicator_verdict(name, P: PartialActionData, ground, found, cap, fail_note):
    """The verdict of an indicator search `found` = (witness, exhausted)
    over `ground`: pass with the witness; fail when the subset lattice of
    the full acting basis is exhausted; otherwise inconclusive."""
    witness, exhausted = found
    decided = exhausted and P.instance.algebra.is_finite() and set(ground) == set(
        P.instance.algebra.basis)
    gap = [] if witness is not None else [
        {"note": fail_note, "ground": list(ground)} if decided else
        {"note": "search exhausted a partial window" if exhausted
         else "candidate cap reached", "cap": cap}]
    return CheckResult.law(name, gap if decided else [], gap, witness=witness)


def _covered_product_failures(P: PartialActionData, aw, lw, inner, cover) -> list:
    """Law (i) or (v) on every (a, b, x, y): a . inner(b, x, y) equals
    sum (u . x)(w . y) over cover(a, b) = sum u (x) w.  inner does not
    depend on a: one product per (b, x, y)."""
    inners = {(b, x, y): inner(b, x, y) for b in aw for x in lw for y in lw}
    witnesses = []
    for a in aw:
        for b in aw:
            for x in lw:
                for y in lw:
                    lhs = P.act_vec(FinVec.basis(a), inners[b, x, y])
                    rhs = linear(
                        lambda uw: P.algebra.mul(P.act(uw[0], x), P.act(uw[1], y))
                    )(cover(a, b))
                    if lhs != rhs:
                        witnesses.append({"a": a, "b": b, "x": x, "y": y,
                                          "lhs": lhs, "rhs": rhs})
    return witnesses


def _compatibility_failures(P: PartialActionData, a, aw, lw, side, cover):
    """Law (ii) or (vi) at one acting token a, on every (b, x): e(a)
    applied on `side` to b . x equals sum u . (w . x) over
    cover(a, b) = sum u (x) w."""
    e = P.e_map(a)
    for b in aw:
        for x in lw:
            lhs = side(e, P.act(b, x))
            rhs = linear(lambda uw: P.act_vec(uw[0], P.act(uw[1], x)))(cover(a, b))
            if lhs != rhs:
                yield {"a": a, "b": b, "x": x, "lhs": lhs, "rhs": rhs}


def _span_failures(P: PartialActionData, a, lw, side, action_span):
    """The span part of law (ii) or law (vii) at one acting token a: e(a)
    applied on `side` to each basis x lies in A.L."""
    e = P.e_map(a)
    for x in lw:
        img = side(e, FinVec.basis(x))
        if not action_span.contains(img):
            yield {"a": a, "x": x, "outside_span": img}


def check_partial_action(P: PartialActionData, a_window=None) -> list[CheckResult]:
    """The four defining laws, the multiplier axioms for e, and the
    globality characterization (e = counit exactly when the module laws
    hold globally)."""
    M = P.instance
    aw = M.basis_window(a_window)
    lw = P.algebra.basis_window()
    results = []

    witnesses = _covered_product_failures(
        P, aw, lw, lambda b, x, y: P.algebra.mul(FinVec.basis(x), P.act(b, y)), M.delta_r)
    results.append(CheckResult.law(
        "action_product_law", witnesses[:3], a_window=len(aw), l_window=len(lw)))

    action_span = spans.Span(P.act(a, x) for a in aw for x in lw)
    witnesses = []
    for a in aw:
        witnesses += _compatibility_failures(P, a, aw, lw, Multiplier.apply_left, M.t1_inv)
        witnesses += _span_failures(P, a, lw, Multiplier.apply_left, action_span)
    results.append(CheckResult.law(
        "e_left_compatibility", witnesses[:3], a_window=len(aw), l_window=len(lw)))

    def unit_pred(b):
        for a in aw:
            av = FinVec.basis(a)
            if P.instance.algebra.mul(av, b) != av:
                return False
            if P.instance.algebra.mul(b, av) != av:
                return False
        for a in aw:
            for x in lw:
                if P.act_vec(FinVec.basis(a), P.act_vec(b, FinVec.basis(x))) != P.act(a, x):
                    return False
        return True

    results.append(indicator_verdict(
        "local_units", P, aw, search_indicator_witness(aw, unit_pred),
        MAX_CANDIDATES, "no indicator over the full basis satisfies both clauses"))

    def stacked(x_tok):
        return from_grades({a: P.act(a, x_tok) for a in aw})

    kernel = spans.kernel_of_map(lw, stacked)
    results.append(CheckResult.law(
        "nondegenerate", [{"kernel": v} for v in kernel[:3]], l_window=len(lw)))

    witnesses = []
    for a in aw:
        res = multiplier_check(P.e_map(a), window=lw)
        if not res.ok():
            witnesses.append({"a": a, "violations": res.witnesses})
    results.append(CheckResult.law("e_multiplier", witnesses[:3], a_window=len(aw)))

    def is_counit_multiplier(a):
        m = P.e_map(a)
        c = M.counit(a)
        return all(m.left[t] == m.right[t] == FinVec.basis(t, c) for t in lw)

    e_is_counit = all(is_counit_multiplier(a) for a in aw)
    module_law = True
    law_witness = None
    for a in aw:
        for b in aw:
            ab = M.algebra.mul_basis(a, b)
            for x in lw:
                lhs = P.act_vec(FinVec.basis(a), P.act(b, x))
                rhs = P.act_vec(ab, FinVec.basis(x))
                if lhs != rhs:
                    module_law = False
                    law_witness = {"a": a, "b": b, "x": x, "lhs": lhs, "rhs": rhs}
                    break
            if not module_law:
                break
        if not module_law:
            break
    witnesses = [] if e_is_counit == module_law else [
        {"e_is_counit": e_is_counit, "module_law": module_law, "law_witness": law_witness}]
    results.append(CheckResult.law(
        "global_characterization", witnesses, global_action=e_is_counit))
    return results


def check_symmetric(P: PartialActionData, a_window=None) -> list[CheckResult]:
    """The three symmetric laws; needs a regular acting instance."""
    M = P.instance
    if not M.is_regular():
        raise CapabilityError(f"{M.name} is not regular")
    aw = M.basis_window(a_window)
    lw = P.algebra.basis_window()
    results = []

    witnesses = _covered_product_failures(
        P, aw, lw, lambda b, x, y: P.algebra.mul(P.act(b, x), FinVec.basis(y)), M.delta_r_flip)
    results.append(CheckResult.law(
        "symmetric_product_law", witnesses[:3], a_window=len(aw), l_window=len(lw)))

    witnesses = [w for a in aw for w in _compatibility_failures(
        P, a, aw, lw, Multiplier.apply_right, M.cov_Sinv)]
    results.append(CheckResult.law(
        "e_right_compatibility", witnesses[:3], a_window=len(aw), l_window=len(lw)))

    action_span = spans.Span(P.act(a, x) for a in aw for x in lw)
    witnesses = [w for a in aw for w in _span_failures(
        P, a, lw, Multiplier.apply_right, action_span)]
    results.append(CheckResult.law(
        "right_span", witnesses[:3], a_window=len(aw), l_window=len(lw)))
    return results


def example_fN(group: GroupSpec, subgroup) -> PartialActionData:
    """The corner action on f_N kG: delta_p . (f_N h) = (1/|N|) f_N p when
    p h^{-1} lands in N, zero otherwise."""
    N = tuple(subgroup)
    if set(closure(group, N)) != set(N):
        raise StructuralError("subgroup elements are not closed")
    if not is_normal(group, N):
        raise StructuralError("subgroup is not normal")
    kG = group_algebra_plain(group)
    f = subgroup_average_idempotent(kG, N)
    corner = Corner(kG, f, name=f"corner:{group.name}")
    n = Fraction(1, len(N))
    nset = set(N)
    rep = {}
    for p in group.elements:
        proj = corner.project(kG.mul(f, FinVec.basis(p)))
        toks = proj.support()
        if len(toks) != 1 or proj[toks[0]] != 1:
            raise StructuralError("coset projection is not a single basis token")
        rep[p] = toks[0]

    def act(p, h):
        if group.mul(p, group.inv(h)) in nset:
            return FinVec.basis(rep[p], n)
        return FinVec()

    instance = function_algebra(group)

    def e_map(p):
        coeff = n if p in nset else Fraction(0)
        return Multiplier.scalar(corner.algebra, coeff)

    return PartialActionData(
        name=f"corner-action:{group.name}",
        instance=instance,
        algebra=corner.algebra,
        act=act,
        e_map=e_map,
        aux={"corner": corner, "subgroup": N, "idempotent": f, "rep": rep},
    )


def lambda_action(group: GroupSpec, subgroup, target: Algebra) -> PartialActionData:
    """Scalar partial action through the averaged subgroup character
    lambda(delta_g) = (1/|N|)[g in N]; every x is fixed by the indicator
    of N, which is the minimal quasi-unit witness."""
    N = tuple(subgroup)
    if set(closure(group, N)) != set(N):
        raise StructuralError("subgroup elements are not closed")
    if target.basis is None:
        raise CapabilityError("target needs a finite basis")
    n = Fraction(1, len(N))
    nset = set(N)

    def lam(g):
        return n if g in nset else Fraction(0)

    def act(g, x):
        return FinVec.basis(x, lam(g))

    def e_map(g):
        return Multiplier.scalar(target, lam(g))

    return PartialActionData(
        name=f"lambda-action:{group.name}",
        instance=function_algebra(group),
        algebra=target,
        act=act,
        e_map=e_map,
        aux={"subgroup": N},
    )


def global_AG_on_kG(group: GroupSpec) -> PartialActionData:
    """delta_p |> h = delta_p(h) h, the evaluation action on the group
    algebra: a global module algebra, so e(delta_p) = eps(delta_p) 1."""
    kG = group_algebra_plain(group)
    instance = function_algebra(group)

    def act(p, h):
        return FinVec.basis(h) if p == h else FinVec()

    def e_map(p):
        return Multiplier.scalar(kG, instance.counit(p))

    return PartialActionData(
        name=f"evaluation:{group.name}",
        instance=instance,
        algebra=kG,
        act=act,
        e_map=e_map,
    )


def _projection_mismatches(aw, vecs, act_vec, mul, proj):
    """Every failure of the two projection laws

        right:  proj(a |> (v (b |> w))) = proj(a |> (v proj(b |> w)))
        left:   proj(a |> ((b |> v) w)) = proj(a |> (proj(b |> v) w))

    over a, b in `aw` and v, w in `vecs`, as (law, a, b, v, w, lhs, rhs) in
    (a, b, v, w) order, the right law first.

    The two products inside each side depend on (b, v, w) alone, so each
    is computed once.  When they are equal, both sides agree for every a,
    so only unequal products go through `a |>` and `proj` per a."""
    unequal = []
    for b in aw:
        acted = [act_vec(FinVec.basis(b), v) for v in vecs]
        projected = [proj(u) for u in acted]
        for v, bv, pbv in zip(vecs, acted, projected):
            for w, bw, pbw in zip(vecs, acted, projected):
                for law, x, y in (("right", mul(v, bw), mul(v, pbw)),
                                  ("left", mul(bv, w), mul(pbv, w))):
                    if x != y:
                        unequal.append((law, b, v, w, x, y))
    for a in aw:
        av = FinVec.basis(a)
        for law, b, v, w, x, y in unequal:
            lhs = proj(act_vec(av, x))
            rhs = proj(act_vec(av, y))
            if lhs != rhs:
                yield law, a, b, v, w, lhs, rhs


def check_a_projection(proj: AProjection) -> list[CheckResult]:
    """Idempotence, multiplicativity, image span, and the defining
    commutation of projection with nested actions.  The products of the
    two commutation identities are computed once per (b, x, y)
    (`_projection_mismatches`)."""
    ctx = proj.context
    aw = ctx.instance.basis_window()
    rw = ctx.algebra.basis_window()
    results = []

    witnesses = []
    for t in rw:
        v = FinVec.basis(t)
        pv = proj.rule(v)
        if proj.rule(pv) != pv:
            witnesses.append({"x": t, "pi(x)": pv, "pi(pi(x))": proj.rule(pv)})
    results.append(CheckResult.law("pi_idempotent", witnesses[:3], r_window=len(rw)))

    witnesses = []
    image_vecs = [v for v in proj.image if not v.is_zero()]
    projected = [proj.rule(FinVec.basis(t)) for t in rw]
    projected = [v for v in projected if not v.is_zero()]
    eq = spans.subspace_equal(projected, image_vecs)
    if not eq:
        witnesses.append({"note": "projected window span differs from declared image"})
    for v in image_vecs:
        if proj.rule(v) != v:
            witnesses.append({"image_vec": v, "pi": proj.rule(v)})
    results.append(CheckResult.law(
        "pi_image", witnesses[:3], image_dim=spans.Span(image_vecs).rank))

    witnesses = []
    for s in rw:
        for t in rw:
            lhs = proj.rule(ctx.algebra.mul_basis(s, t))
            rhs = ctx.algebra.mul(proj.rule(FinVec.basis(s)), proj.rule(FinVec.basis(t)))
            if lhs != rhs:
                witnesses.append({"pair": (s, t), "pi(xy)": lhs, "pi(x)pi(y)": rhs})
    results.append(CheckResult.law("pi_multiplicative", witnesses[:3], r_window=len(rw)))

    sub = [v for v in proj.image if not v.is_zero()]
    witnesses = {"right": [], "left": []}
    for law, a, b, x, y, lhs, rhs in _projection_mismatches(
            aw, sub, ctx.act_vec, ctx.algebra.mul, proj.rule):
        witnesses[law].append({"a": a, "b": b, "x": x, "y": y, "lhs": lhs, "rhs": rhs})
    results.append(CheckResult.law(
        "a_projection_identity", witnesses["right"][:3],
        a_window=len(aw), sub_dim=len(sub)))
    results.append(CheckResult.law(
        "symmetric_projection_identity", witnesses["left"][:3],
        a_window=len(aw), sub_dim=len(sub)))
    return results


def central_idempotent_projection(ctx: PartialActionData, idem: FinVec) -> AProjection:
    alg = ctx.algebra
    if alg.mul(idem, idem) != idem:
        raise StructuralError("not idempotent")
    rw = alg.basis_window(None)
    image = spans.span_basis([alg.mul(idem, FinVec.basis(t)) for t in rw])
    return AProjection(context=ctx, idem=idem, image=tuple(image))


def induce_from_projection(proj: AProjection) -> PartialActionData:
    """a . x := pi(a |> x) on the image of an A-projection, in the
    coordinates of its corner, with the multiplier e(a) assembled from the
    covered one-sided formulas."""
    ctx = proj.context
    M = ctx.instance
    pre = check_a_projection(proj)
    bad = [r for r in pre if not r.ok()]
    if bad:
        raise StructuralError(
            "projection rejected: " + ", ".join(r.name for r in bad))
    corner = Corner(ctx.algebra, proj.idem)
    aw = M.basis_window()

    def act(a, ltok):
        return corner.project(ctx.act_vec(FinVec.basis(a), corner.embed(FinVec.basis(ltok))))

    act_vec = bilinear(act)

    unit_cache = {}

    def acting_unit(ltok):
        if ltok not in unit_cache:
            target = FinVec.basis(ltok)
            witness, exhausted = search_indicator_witness(
                aw, lambda b: act_vec(b, target) == target)
            if witness is None:
                raise CapabilityError(
                    f"no acting unit for {ltok!r} (exhausted={exhausted})")
            unit_cache[ltok] = witness
        return unit_cache[ltok]

    def e_map(a):
        def side(cover):
            # sum u . (w . l) over the covered expansion of a against the
            # acting unit of l
            return lambda ltok: linear(
                lambda uw: act_vec(FinVec.basis(uw[0]), act(uw[1], ltok))
            )(bilinear(cover)(FinVec.basis(a), acting_unit(ltok)))

        return Multiplier.from_rules(
            corner.algebra, side(M.t1_inv), side(M.cov_Sinv), window=corner.reps
        )

    return PartialActionData(
        name=f"induced:{ctx.name}",
        instance=M,
        algebra=corner.algebra,
        act=act,
        e_map=e_map,
        aux={"context": ctx, "projection": proj, "corner": corner},
    )


def quasi_unitary_witness(P: PartialActionData, elems, a_window=None,
                          max_candidates=MAX_CANDIDATES):
    """Search the acting window for an indicator b with b.x = x and
    (ab).x = a.x for all listed x and windowed a.  Returns (witness or
    None, exhausted flag)."""
    aw = P.instance.basis_window(a_window)

    def pred(b):
        for x in elems:
            if P.act_vec(b, x) != x:
                return False
            for a in aw:
                ab = P.instance.algebra.mul(FinVec.basis(a), b)
                if P.act_vec(ab, x) != P.act_vec(FinVec.basis(a), x):
                    return False
        return True

    return search_indicator_witness(aw, pred, max_candidates)


def check_quasi_unitary(P: PartialActionData, elems, a_window=None,
                        max_candidates=MAX_CANDIDATES) -> CheckResult:
    found = quasi_unitary_witness(P, elems, a_window=a_window, max_candidates=max_candidates)
    return indicator_verdict(
        "quasi_unitary", P, P.instance.basis_window(a_window), found, max_candidates,
        "subset lattice of the full basis exhausted without witness")


def phi_embed(P: PartialActionData, x: FinVec) -> FinVec:
    """theta(x): the finitely supported table g |-> delta_g . x, supported
    inside the quasi-unit witness for x, as a vector on (g, t) tokens."""
    require_tables(P.instance)
    witness, exhausted = quasi_unitary_witness(P, [x])
    if witness is None:
        raise CapabilityError(
            "quasi-unit witness search "
            + ("exhausted" if exhausted else "capped")
            + "; embedding is inconclusive")
    return from_grades({g: P.act_vec(FinVec.basis(g), x) for g in witness.support()})


def globalize(P: PartialActionData) -> Globalization:
    """Standard envelope: translates of the table embedding inside the
    convolution algebra of target-valued functions, acted on by
    `homr.module_act`.  The input is taken to be a symmetric partial
    action; nothing here checks that."""
    group = P.instance.algebra.group
    if group is None or not group.is_finite():
        raise CapabilityError("standard envelope needs a finite acting group")
    if P.algebra.basis is None:
        raise CapabilityError("standard envelope needs a finite target basis")
    aw = P.instance.basis_window()
    env = convolution_algebra(group, P.algebra)
    theta_map = {x: phi_embed(P, FinVec.basis(x)) for x in P.algebra.basis}

    pi_rule = linear(lambda tok: FinVec.basis(tok[1]))

    gens = []
    labels = []
    for a in aw:
        for x in P.algebra.basis:
            labels.append((a, x))
            gens.append(bilinear(module_act)(FinVec.basis(a), theta_map[x]))

    return Globalization(
        name=f"envelope:{P.name}",
        action=P,
        algebra=env,
        act=module_act,
        theta_map=theta_map,
        pi_rule=pi_rule,
        generators=tuple(gens),
        gen_labels=tuple(labels),
    )


JUNK = "junk"


def junk_globalization(P: PartialActionData) -> Globalization:
    """Standard envelope padded with a zero-product summand that the
    projection kills: every minimality battery finds it."""
    std = globalize(P)
    group = P.instance.algebra.group
    lbasis = P.algebra.basis
    tokens = tuple(std.algebra.basis) + tuple((JUNK, t) for t in lbasis)

    def mul_basis(p, q):
        if p[0] == JUNK or q[0] == JUNK:
            return FinVec()
        return std.algebra.mul_basis(p, q)

    env = Algebra(
        name=std.algebra.name + "+junk",
        mul_basis=mul_basis,
        basis=tokens,
        one=None,
        pointwise=False,
        group=None,
    )

    eps = P.instance.counit

    def act(a, tok):
        if tok[0] == JUNK:
            return FinVec.basis(tok, eps(a))
        return std.act(a, tok)

    theta_map = {
        x: std.theta_map[x] + FinVec.basis((JUNK, x)) for x in lbasis
    }

    pi_rule = linear(lambda tok: FinVec() if tok[0] == JUNK else FinVec.basis(tok[1]))

    gens = []
    for (a, x), base in zip(std.gen_labels, std.generators):
        gens.append(base + FinVec.basis((JUNK, x), eps(a)))

    return Globalization(
        name=f"junk-envelope:{P.name}",
        action=P,
        algebra=env,
        act=act,
        theta_map=theta_map,
        pi_rule=pi_rule,
        generators=tuple(gens),
        gen_labels=std.gen_labels,
    )


def check_enveloping(G: Globalization, a_window=None) -> list[CheckResult]:
    """Envelope laws: module algebra structure, embedding is a
    monomorphism onto an ideal, projection compatibility, generation.

    Every tuple of every law is checked.  What does not depend on the
    outer acting token is computed once per call: u |> v for each token
    u and generator v, the product of each pair of generators (shared
    by `env_product_law` and `generation`), and the four products of
    `pi_a_projection` for each (b, v, w).  Where the two products of one
    side of `pi_a_projection` are equal, that side holds for every a and
    is not projected per a (`_projection_mismatches`)."""
    P = G.action
    M = P.instance
    aw = M.basis_window(a_window)
    lbasis = P.algebra.basis
    results = []

    nonzero_gens = [v for v in G.generators if not v.is_zero()]
    acted = once_per_pair(lambda u, i: G.act_vec(FinVec.basis(u), nonzero_gens[i]))
    gen_product = once_per_pair(lambda i, j: G.algebra.mul(nonzero_gens[i], nonzero_gens[j]))

    witnesses = []
    for a in aw:
        for b in aw:
            ab = M.algebra.mul_basis(a, b)
            for i, v in enumerate(nonzero_gens):
                lhs = G.act_vec(FinVec.basis(a), acted(b, i))
                rhs = linear(lambda u: acted(u, i))(ab)
                if lhs != rhs:
                    witnesses.append({"a": a, "b": b, "v": v, "lhs": lhs, "rhs": rhs})
    results.append(CheckResult.law(
        "env_module_law", witnesses[:3], a_window=len(aw), generators=len(nonzero_gens)))

    witnesses = []
    unresolved = []
    covers = []
    for w in nonzero_gens:
        cover, exhausted = search_indicator_witness(aw, lambda b: G.act_vec(b, w) == w)
        if cover is None:
            unresolved.append({"w": w, "exhausted": exhausted})
        covers.append(cover)
    for a in aw:
        av = FinVec.basis(a)
        covered = [None if c is None else bilinear(M.delta_r)(av, c) for c in covers]
        for i, v in enumerate(nonzero_gens):
            for j, (w, cov) in enumerate(zip(nonzero_gens, covered)):
                if cov is None:
                    continue
                lhs = G.act_vec(av, gen_product(i, j))
                rhs = linear(
                    lambda ut: G.algebra.mul(acted(ut[0], i), acted(ut[1], j))
                )(cov)
                if lhs != rhs:
                    witnesses.append({"a": a, "v": v, "w": w, "lhs": lhs, "rhs": rhs})
    results.append(CheckResult.law(
        "env_product_law", witnesses[:3], unresolved[:3], a_window=len(aw)))

    witnesses = []
    for x in lbasis:
        for y in lbasis:
            lhs = G.theta(P.algebra.mul_basis(x, y))
            rhs = G.algebra.mul(G.theta_map[x], G.theta_map[y])
            if lhs != rhs:
                witnesses.append({"pair": (x, y), "theta(xy)": lhs,
                                  "theta(x)theta(y)": rhs})
    kernel = spans.kernel_of_map(lbasis, lambda t: G.theta_map[t])
    for v in kernel[:2]:
        witnesses.append({"kernel": v})
    results.append(CheckResult.law("theta_monomorphism", witnesses[:3], dim=len(lbasis)))

    theta_vecs = [G.theta_map[x] for x in lbasis]
    theta_span = spans.Span(theta_vecs)
    witnesses = []
    for x in lbasis:
        for v in nonzero_gens:
            prod = G.algebra.mul(G.theta_map[x], v)
            if not theta_span.contains(prod):
                witnesses.append({"x": x, "v": v, "product": prod})
    results.append(CheckResult.law(
        "theta_right_ideal", witnesses[:3], generators=len(nonzero_gens)))

    witnesses = []
    for x in lbasis:
        for v in nonzero_gens:
            prod = G.algebra.mul(v, G.theta_map[x])
            if not theta_span.contains(prod):
                witnesses.append({"x": x, "v": v, "product": prod})
    results.append(CheckResult.law(
        "theta_two_sided_ideal", witnesses[:3], generators=len(nonzero_gens)))

    witnesses = []
    for a in aw:
        for x in lbasis:
            lhs = G.theta(P.act(a, x))
            rhs = G.pi(G.act_vec(FinVec.basis(a), G.theta_map[x]))
            if lhs != rhs:
                witnesses.append({"a": a, "x": x, "theta(a.x)": lhs,
                                  "pi(a|>theta(x))": rhs})
    results.append(CheckResult.law(
        "theta_pi_equivalence", witnesses[:3], a_window=len(aw), basis=len(lbasis)))

    witnesses = []
    gen_span = spans.Span(nonzero_gens)
    for x in lbasis:
        if not gen_span.contains(G.theta_map[x]):
            witnesses.append({"theta_outside": x})
    for i, v in enumerate(nonzero_gens):
        for j, w in enumerate(nonzero_gens):
            if not gen_span.contains(gen_product(i, j)):
                witnesses.append({"product_outside": (v, w)})
    results.append(CheckResult.law(
        "generation", witnesses[:3], generators=len(nonzero_gens)))

    witnesses = []
    for v in nonzero_gens:
        pv = G.pi(v)
        if G.pi(pv) != pv:
            witnesses.append({"v": v, "pi": pv, "pipi": G.pi(pv)})
        if not theta_span.contains(pv):
            witnesses.append({"v": v, "pi_outside_theta": pv})
    for x in lbasis:
        if G.pi(G.theta_map[x]) != G.theta_map[x]:
            witnesses.append({"x": x, "pi_theta": G.pi(G.theta_map[x])})
    nonzero_theta = [v for v in theta_vecs if not v.is_zero()]
    for law, a, b, _, _, lhs, rhs in _projection_mismatches(
            aw, nonzero_theta, G.act_vec, G.algebra.mul, G.pi):
        witnesses.append({"law": law, "a": a, "b": b, "lhs": lhs, "rhs": rhs})
    results.append(CheckResult.law("pi_a_projection", witnesses[:3], a_window=len(aw)))
    return results


def check_minimal(G: Globalization, a_window=None) -> CheckResult:
    """pi must detect every nonzero element of each cyclic submodule: if
    pi kills all translates of v, then v = 0, for v a generator or an
    embedded basis element."""
    aw = G.action.instance.basis_window(a_window)
    battery = list(G.generators) + [G.theta_map[x] for x in G.action.algebra.basis]
    witnesses = []
    for v in battery:
        if v.is_zero():
            continue
        if not G.pi(v).is_zero():
            continue
        if all(G.pi(G.act_vec(FinVec.basis(a), v)).is_zero() for a in aw):
            witnesses.append({"v": v})
    return CheckResult.law("minimal", witnesses[:3], battery=len(battery))


def compare_envelopes(G1: Globalization, G2: Globalization) -> list[CheckResult]:
    """The canonical generator-to-generator comparison morphism: send
    sum a_i |> theta_1(x_i) to sum a_i |> theta_2(x_i) and certify
    well-definedness, the morphism laws, and injectivity."""
    if G1.action is not G2.action:
        raise StructuralError("envelopes globalize different actions")
    if G1.gen_labels != G2.gen_labels:
        raise StructuralError("generator labels disagree")
    n = len(G1.generators)
    idx = tuple(range(n))
    results = []

    via1 = linear(G1.generators.__getitem__)
    via2 = linear(G2.generators.__getitem__)

    kernel1 = spans.kernel_of_map(idx, lambda i: G1.generators[i])
    witnesses = []
    for k in kernel1:
        image = via2(k)
        if not image.is_zero():
            witnesses.append({"coeffs": k, "image": image})
    results.append(CheckResult.law("well_defined", witnesses[:3], relations=len(kernel1)))

    generators1 = spans.Span(G1.generators)

    def phi(v: FinVec):
        coeffs = generators1.coords(v, idx)
        if coeffs is None:
            return None
        return via2(coeffs)

    witnesses = []
    for i in idx:
        for j in idx:
            prod1 = G1.algebra.mul(G1.generators[i], G1.generators[j])
            mapped = phi(prod1)
            if mapped is None:
                witnesses.append({"pair": (i, j), "note": "product escapes generators"})
                continue
            prod2 = G2.algebra.mul(G2.generators[i], G2.generators[j])
            if mapped != prod2:
                witnesses.append({"pair": (i, j), "mapped": mapped, "direct": prod2})
    results.append(CheckResult.law("homomorphism", witnesses[:3], pairs=n * n))

    aw = G1.action.instance.basis_window()
    witnesses = []
    for a in aw:
        for i in idx:
            moved = G1.act_vec(FinVec.basis(a), G1.generators[i])
            mapped = phi(moved)
            if mapped is None:
                witnesses.append({"a": a, "i": i, "note": "translate escapes generators"})
                continue
            if mapped != G2.act_vec(FinVec.basis(a), G2.generators[i]):
                witnesses.append({"a": a, "i": i, "mapped": mapped})
    results.append(CheckResult.law(
        "module_map", witnesses[:3], a_window=len(aw)))

    results.append(CheckResult.law(
        "surjective_onto_generators", [], note="generator-to-generator by construction"))

    kernel2 = spans.kernel_of_map(idx, lambda i: G2.generators[i])
    witnesses = []
    for k in kernel2:
        pre = via1(k)
        if not pre.is_zero():
            witnesses.append({"kernel_element": pre, "coeffs": k})
    results.append(CheckResult.law("injective", witnesses[:3], relations=len(kernel2)))
    return results
