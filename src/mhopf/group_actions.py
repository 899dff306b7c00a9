"""Partial group actions carried by idempotent range multipliers.

A partial action of a finite group G on an algebra R is stored here as one
central idempotent multiplier sigma_g per group element, whose image is the
range ideal R_g, together with linear isomorphisms alpha_g from R_{g^-1}
onto R_g.  Checkers verify the partial-action axioms, the four multiplier
conditions, and the two globalizability conditions.  to_hopf turns the data
into a symmetric partial module algebra over the group algebra (basis
element g acts by x |-> alpha_g(x sigma_{g^-1}), range multiplier sigma_g);
to_group recovers the group-level data from such a module algebra, and
roundtrip_check confirms the two conversions compose to the identity.
The conversions are plain constructions: they run no checker on their
input, which the scenario runner validates once beforehand.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Optional

from . import spans
from .algebras import (
    Algebra,
    Multiplier,
    group_algebra_plain,
    is_central_multiplier,
    is_idempotent_multiplier,
    multiplier_check,
    struct_const_algebra,
)
from .errors import CapabilityError, StructuralError, WindowError
from .groups import GroupSpec, cyclic_group
from .reports import CheckResult
from .vectors import FinVec, lincomb, once_per_pair, token_key

AlphaMap = Callable[[FinVec], FinVec]


class PartialGroupAction(NamedTuple):
    """Corner data (sigma_g, alpha_g) for a finite group acting partially."""

    name: str
    group: GroupSpec
    algebra: Algebra
    sigma: Mapping
    alpha: Mapping
    corners: Mapping


def sigma_image_basis(algebra: Algebra, m: Multiplier) -> tuple:
    """Basis of m(R), read from the left table on the algebra basis."""
    window = algebra.basis_window(None)
    return tuple(spans.span_basis([m.left[t] for t in window]))


def make_pga(name, group: GroupSpec, algebra: Algebra, sigma, alpha) -> PartialGroupAction:
    """Assemble the data; corner bases are derived from the sigma images."""
    if group.elements is None:
        raise CapabilityError("partial group actions need a finite group")
    if not algebra.is_finite():
        raise CapabilityError("partial group actions need a finite algebra basis")
    sigma = dict(sigma)
    alpha = dict(alpha)
    missing = [g for g in group.elements if g not in sigma or g not in alpha]
    if missing:
        raise StructuralError(f"missing sigma/alpha entries at {missing[:3]}")
    corners = {g: sigma_image_basis(algebra, sigma[g]) for g in group.elements}
    return PartialGroupAction(name, group, algebra, sigma, alpha, corners)


def _sigma_product(P: PartialGroupAction, g, h, vec: FinVec) -> FinVec:
    """sigma_g sigma_h vec: sigma_h applied first, then sigma_g."""
    return P.sigma[g].apply_left(P.sigma[h].apply_left(vec))


def _product_image_basis(P: PartialGroupAction, g, h) -> list:
    """Basis of sigma_g sigma_h (R); stands in for the corner intersection."""
    window = P.algebra.basis_window(None)
    return spans.span_basis([_sigma_product(P, g, h, FinVec.basis(t)) for t in window])


def alpha_inverse_image(P: PartialGroupAction, g, target: FinVec, factored: dict) -> Optional[FinVec]:
    """Solve alpha_g(v) == target for v in the g^-1 corner, or None.

    `factored` maps g to the Span of alpha_g(corner_{g^-1}), built on the
    first question about g; an alpha_g that raises leaves no entry."""
    dom = P.corners[P.group.inv(g)]
    span = factored.get(g)
    if span is None:
        span = factored[g] = spans.Span(P.alpha[g](v) for v in dom)
    coeffs = span.coords(target, range(len(dom)))
    if coeffs is None:
        return None
    return lincomb((dom[i], c) for i, c in coeffs.items())


def gamma_element(P: PartialGroupAction, g, x: FinVec) -> FinVec:
    """gamma_g(x) = alpha_g(x sigma_{g^-1}), the globalizing multiplier."""
    if not isinstance(x, FinVec):
        x = FinVec.basis(x)
    return P.alpha[g](P.sigma[P.group.inv(g)].apply_right(x))


# ---------------------------------------------------------------------------
# checkers


def check_pga(P: PartialGroupAction) -> list:
    """Partial-action axioms: identity component, isomorphisms, translation
    of corner intersections, and compatibility of composed maps."""
    group = P.group
    basis = [FinVec.basis(t) for t in P.algebra.basis_window(None)]
    product_basis = once_per_pair(lambda g, h: _product_image_basis(P, g, h))
    results = []

    witnesses = []
    if not spans.subspace_equal(P.corners[group.identity], basis):
        witnesses.append({"law": "identity corner is all of R"})
    for v in basis:
        try:
            img = P.alpha[group.identity](v)
        except (WindowError, StructuralError) as exc:
            witnesses.append({"element": v, "error": str(exc)})
            continue
        if img != v:
            witnesses.append({"element": v, "image": img})
    results.append(CheckResult.law("identity_component", witnesses))

    witnesses = []
    for g in group.elements:
        dom = P.corners[group.inv(g)]
        try:
            imgs = [P.alpha[g](v) for v in dom]
        except (WindowError, StructuralError) as exc:
            witnesses.append({"g": g, "error": str(exc)})
            continue
        if spans.Span(imgs).rank != len(dom):
            witnesses.append({"g": g, "law": "alpha_g not injective"})
        if not spans.subspace_equal(imgs, P.corners[g]):
            witnesses.append({"g": g, "law": "alpha_g image is not the g corner"})
    results.append(CheckResult.law("alpha_isomorphisms", witnesses))

    witnesses = []
    for g in group.elements:
        dom = P.corners[group.inv(g)]
        for v in dom:
            for w in dom:
                if len(witnesses) == 5:
                    break
                prod = P.algebra.mul(v, w)
                try:
                    lhs = P.alpha[g](prod)
                except (WindowError, StructuralError) as exc:
                    witnesses.append({"g": g, "pair": (v, w), "error": str(exc)})
                    continue
                if lhs != P.algebra.mul(P.alpha[g](v), P.alpha[g](w)):
                    witnesses.append({"g": g, "pair": (v, w)})
    results.append(CheckResult.law("alpha_multiplicative", witnesses))

    witnesses = []
    for g in group.elements:
        for h in group.elements:
            dom_int = product_basis(group.inv(g), h)
            try:
                lhs = [P.alpha[g](v) for v in dom_int]
            except (WindowError, StructuralError) as exc:
                witnesses.append({"g": g, "h": h, "error": str(exc)})
                continue
            rhs = product_basis(g, group.mul(g, h))
            if not spans.subspace_equal(lhs, rhs):
                witnesses.append({"g": g, "h": h})
    results.append(CheckResult.law("intersection_translation", witnesses))

    witnesses = []
    factored = {}
    for g in group.elements:
        for h in group.elements:
            target = product_basis(h, group.inv(g))
            gh = group.mul(g, h)
            for w in target:
                if len(witnesses) == 5:
                    break
                x = alpha_inverse_image(P, h, w, factored)
                if x is None:
                    witnesses.append({"g": g, "h": h, "law": "target outside alpha_h image", "target": w})
                    continue
                if P.alpha[g](P.alpha[h](x)) != P.alpha[gh](x):
                    witnesses.append({"g": g, "h": h, "element": x})
    results.append(CheckResult.law("composition", witnesses))
    return results


def check_sigma_conditions(P: PartialGroupAction) -> list:
    """The four range-multiplier conditions.  alpha_g is extended to
    multipliers through its corner inverse; a singular alpha_g cannot be
    extended and raises CapabilityError."""
    group = P.group
    window = P.algebra.basis_window(None)
    results = []

    witnesses = []
    for g in group.elements:
        m = P.sigma[g]
        if not multiplier_check(m, window=window).ok():
            witnesses.append({"g": g, "law": "multiplier compatibility"})
        if not is_idempotent_multiplier(m):
            witnesses.append({"g": g, "law": "idempotent"})
        if not is_central_multiplier(m):
            witnesses.append({"g": g, "law": "central"})
    results.append(CheckResult.law("sigma_central_idempotent", witnesses))

    witnesses = []
    factored = {}
    for g in group.elements:
        for h in group.elements:
            ginv, gh = group.inv(g), group.mul(g, h)
            for y in P.corners[g]:
                if len(witnesses) == 5:
                    break
                pre = alpha_inverse_image(P, g, y, factored)
                if pre is None:
                    raise CapabilityError(
                        f"alpha at {g} is not invertible on its corner; "
                        "cannot extend it to multipliers"
                    )
                if P.alpha[g](_sigma_product(P, ginv, h, pre)) != _sigma_product(P, g, gh, y):
                    witnesses.append({"g": g, "h": h, "element": y})
    results.append(CheckResult.law("sigma_translation", witnesses))

    witnesses = []
    for g in group.elements:
        for v in P.corners[group.inv(g)]:
            img = P.alpha[g](v)
            if P.sigma[g].apply_right(img) != img:
                witnesses.append({"g": g, "element": v})
    results.append(CheckResult.law("sigma_absorbs_alpha", witnesses))

    witnesses = []
    for g in group.elements:
        shifted = [P.sigma[g].right[t] for t in window]
        bad = spans.subspace_le(shifted, list(P.corners[g]))
        if bad is not None:
            witnesses.append({"g": g, "element": bad})
    results.append(CheckResult.law("corner_containment", witnesses))
    return results


def check_globalizability(P: PartialGroupAction) -> list:
    """Corner s-unitality plus existence of the gamma multipliers: every
    gamma_g(x) pushes R into the g corner and acts on it, from the right,
    as alpha_g . (right multiplication by x) . alpha_{g^-1}."""
    group = P.group
    window = P.algebra.basis_window(None)
    results = []

    witnesses = []
    for g in group.elements:
        corner = list(P.corners[g])
        for x in corner:
            if not spans.Span(P.algebra.mul(u, x) for u in corner).contains(x):
                witnesses.append({"g": g, "element": x})
    results.append(CheckResult.law("corners_s_unital", witnesses))

    range_witnesses = []
    restr_witnesses = []
    for g in group.elements:
        ginv = group.inv(g)
        for t in window:
            gamma = gamma_element(P, g, t)
            shifted = [P.algebra.mul(FinVec.basis(s), gamma) for s in window]
            bad = spans.subspace_le(shifted, list(P.corners[g]))
            if bad is not None:
                range_witnesses.append({"g": g, "x": t, "element": bad})
            for y in P.corners[g]:
                if len(restr_witnesses) == 5:
                    break
                pulled = P.alpha[ginv](y)
                direct = P.alpha[g](P.algebra.mul(pulled, FinVec.basis(t)))
                if P.algebra.mul(y, gamma) != direct:
                    restr_witnesses.append({"g": g, "x": t, "element": y})
    results.append(CheckResult.law("gamma_range", range_witnesses))
    results.append(CheckResult.law("gamma_restriction", restr_witnesses))
    return results


# ---------------------------------------------------------------------------
# conversions


def to_hopf(P: PartialGroupAction):
    """Partial module-algebra data over the group algebra: g acts by
    x |-> alpha_g(x sigma_{g^-1}) and the range map sends g to sigma_g.
    Each (g, t) is computed once; `to_group` reads the same rule back
    through `act_vec`."""
    from .mha import instance_for
    from .partial_actions import PartialActionData

    return PartialActionData(
        name=f"dual-side:{P.name}",
        instance=instance_for("kG", P.group),
        algebra=P.algebra,
        act=once_per_pair(lambda g, t: gamma_element(P, g, FinVec.basis(t))),
        e_map=lambda g: P.sigma[g],
    )


def to_group(Q) -> PartialGroupAction:
    """Recover group-level data: corners are the e_map images, alpha_g is
    the action of the basis element g restricted to the g^-1 corner.  Each
    range multiplier must be a central idempotent."""
    group = Q.instance.algebra.group
    if group is None or group.elements is None:
        raise CapabilityError("to_group needs a finite group-algebra instance")
    window = Q.algebra.basis_window(None)
    sigma = {}
    for g in group.elements:
        m = Q.e_map(g)
        if not is_idempotent_multiplier(m):
            raise StructuralError(f"range multiplier at {g} is not idempotent")
        if not is_central_multiplier(m):
            bad_tok = next(t for t in window if m.left[t] != m.right[t])
            raise StructuralError(f"range multiplier at {g} not central, witness {bad_tok}")
        sigma[g] = m

    def mk_alpha(g):
        return lambda v: Q.act_vec(FinVec.basis(g), v)

    alpha = {g: mk_alpha(g) for g in group.elements}
    return make_pga(f"group-side:{Q.name}", group, Q.algebra, sigma, alpha)


def roundtrip_check(P: PartialGroupAction) -> list:
    """to_group(to_hopf(P)) must reproduce corners, sigma actions, and
    alpha values exactly."""
    group = P.group
    Q = to_group(to_hopf(P))
    window = P.algebra.basis_window(None)
    results = []

    witnesses = []
    for g in group.elements:
        if not spans.subspace_equal(list(P.corners[g]), list(Q.corners[g])):
            witnesses.append({"g": g})
    results.append(CheckResult.law("corners_match", witnesses))

    witnesses = []
    for g in group.elements:
        p, q = P.sigma[g], Q.sigma[g]
        for t in window:
            if p.left[t] != q.left[t] or p.right[t] != q.right[t]:
                witnesses.append({"g": g, "token": t})
    results.append(CheckResult.law("sigma_match", witnesses))

    witnesses = []
    for g in group.elements:
        for v in P.corners[group.inv(g)]:
            if P.alpha[g](v) != Q.alpha[g](v):
                witnesses.append({"g": g, "element": v})
    results.append(CheckResult.law("alpha_match", witnesses))
    return results


# ---------------------------------------------------------------------------
# constructors


def subset_translation_pga(group: GroupSpec, subset) -> PartialGroupAction:
    """Left translation on functions over a finite subset X of the group.

    R is k^X with the pointwise product, sigma_g the indicator of X n gX,
    and alpha_g moves the point mass at x to the one at gx.  Taking X to be
    all of G gives the global translation action.
    """
    if group.elements is None:
        raise CapabilityError("subset translation needs a finite group")
    X = tuple(dict.fromkeys(subset))
    xset = set(X)
    if not xset <= set(group.elements):
        raise StructuralError("subset contains tokens outside the group")

    def mul_basis(i, j):
        return FinVec.basis(i) if i == j else FinVec()

    algebra = Algebra(
        name=f"functions:{group.name}|{len(X)}pts",
        mul_basis=mul_basis,
        basis=X,
        one=FinVec((x, 1) for x in X),
        pointwise=True,
        group=group,
    )
    sigma = {}
    alpha = {}
    for g in group.elements:
        ginv = group.inv(g)
        overlap = frozenset(x for x in X if group.mul(ginv, x) in xset)

        def indicator(b, overlap=overlap):
            return FinVec.basis(b) if b in overlap else FinVec()

        sigma[g] = Multiplier.from_rules(algebra, indicator, indicator, X)
        dom = frozenset(x for x in X if group.mul(g, x) in xset)

        def alpha_g(vec, g=g, dom=dom):
            outside = [t for t, _ in vec.items() if t not in dom]
            if outside:
                tok = min(outside, key=token_key)
                raise StructuralError(f"token {tok} outside the domain corner")
            return vec.map_tokens(lambda t: group.mul(g, t))

        alpha[g] = alpha_g
    label = "full" if len(X) == len(group.elements) else f"{len(X)}pts"
    return make_pga(f"translation:{group.name}:{label}", group, algebra, sigma, alpha)


def conjugation_pga(ambient: GroupSpec, involution) -> PartialGroupAction:
    """Global order-two action on a group algebra by conjugation."""
    if ambient.elements is None:
        raise CapabilityError("conjugation fixture needs a finite ambient group")
    if ambient.mul(involution, involution) != ambient.identity:
        raise StructuralError("conjugating element must square to the identity")
    flip = cyclic_group(2)
    algebra = group_algebra_plain(ambient)
    sigma = {g: Multiplier.scalar(algebra, 1) for g in flip.elements}

    def conj(vec):
        return vec.map_tokens(lambda t: ambient.mul(ambient.mul(involution, t), involution))

    alpha = {0: lambda v: v, 1: conj}
    return make_pga(f"conjugation:{ambient.name}", flip, algebra, sigma, alpha)


def zero_corner_pga() -> PartialGroupAction:
    """Order-two fixture whose moved corner is a line with zero product."""
    u, z = "u", "z"
    table = {(u, u): FinVec.basis(u)}
    algebra = struct_const_algebra("unit-plus-nil", (u, z), table)
    flip = cyclic_group(2)
    window = algebra.basis_window(None)

    def proj(t):
        return FinVec.basis(t) if t == z else FinVec()

    sigma = {
        0: Multiplier.scalar(algebra, 1),
        1: Multiplier.from_rules(algebra, proj, proj, window=window),
    }

    def fix_line(vec):
        if any(t != z for t, _ in vec.items()):
            raise StructuralError("vector outside the nil corner")
        return vec

    alpha = {0: lambda v: v, 1: fix_line}
    return make_pga("zero-corner", flip, algebra, sigma, alpha)


def mutate_pga(P: PartialGroupAction, kind, g=None, multiplier=None) -> PartialGroupAction:
    """Deliberately damaged copies used to prove the checkers can fail."""
    group = P.group
    if g is None:
        g = next(t for t in group.elements if t != group.identity)
    if kind == "alpha":
        base = P.alpha[g]
        alpha = dict(P.alpha)
        alpha[g] = lambda v: base(v).scale(2)
        return make_pga(f"{P.name}|alpha-scaled", group, P.algebra, P.sigma, alpha)
    if kind == "sigma":
        if multiplier is None:
            raise StructuralError("sigma mutation needs a replacement multiplier")
        sigma = dict(P.sigma)
        sigma[g] = multiplier
        return make_pga(f"{P.name}|sigma-swapped", group, P.algebra, sigma, P.alpha)
    raise StructuralError(f"unknown mutation kind: {kind}")
