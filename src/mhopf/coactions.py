"""Partial coactions of multiplier Hopf algebras on nonunital algebras.

A coaction never leaves the covered world: the structure map rho is carried
as the two rules

    rho_r(x, a) = rho(x)(1 (x) a)          in  L (x) A
    rho_l(a, x) = (1 (x) a) rho(x)         in  L (x) A

together with the range idempotent E, an explicit multiplier on the tensor
square L (x) A.  The defining typing constraints ((1 (x) A)E and E(1 (x) A)
landing in M(L) (x) A) are built into that operator representation: E acts
slot by slot, and the checker verifies the slotwise laws on the window.

The coassociativity axiom and its symmetric mirror are verified in fully
covered form.  Writing rho(x)(1 (x) a) = x0 (x) x1 a, the right-covered
axiom becomes, for every pair a, b,

    x00 (x) x01 a (x) x1 b  =  sum_i E(x0 (x) (x1 a_i)_1) (x) (x1 a_i)_2 b_i

where a (x) b = sum_i Delta(a_i)(1 (x) b_i) is the t1_inv factorization:
the inner product x1 a_i materializes through rho_r(x, a_i), after which
delta_r finishes the covering.  The mirror uses left covers, the t2_inv
factorization a (x) b = sum_j (a_j (x) 1) Delta(b_j), rho_l, delta_l, and
the right action of E.

Also here: quasi-counitary idempotent checks, the dual-functional action
and its convolution product for pointwise instances, comodules generated
by finite element sets inside a global comodule, and the enveloping
coaction (envelope inside L (x) A under 1 (x) Delta, embedding theta,
projection pi) with its full verification battery.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from . import spans
from .algebras import Algebra, Multiplier, is_idempotent_multiplier, multiplier_check, tensor_square_algebra
from .errors import CapabilityError
from .mha import MhaInstance
from .reports import CheckResult
from .vectors import FinVec, bilinear, from_grades, lincomb, linear, on_legs, once_per_pair, tensor

PairRule = Callable[[object, object], FinVec]


class PartialCoactionData(NamedTuple):
    """Covered partial coaction (L, rho, E) of the instance A on L.

    rho_r(x_tok, a_tok) and rho_l(a_tok, x_tok) return vectors on pair
    tokens (l, t) of L (x) A.  E multiplies those pairs from either side.
    """

    name: str
    target: Algebra
    instance: MhaInstance
    rho_r: PairRule
    rho_l: PairRule
    E: Multiplier

    def target_basis(self):
        if self.target.basis is None:
            raise CapabilityError(f"{self.name}: coacted algebra has no finite basis")
        return self.target.basis

    def rho_r_vec(self, x: FinVec, a: FinVec) -> FinVec:
        return bilinear(self.rho_r)(x, a)


class GlobalComodule(NamedTuple):
    """Honest comodule algebra carried by its right-covered rule:
    rho_r(r_tok, a_tok) lands in R (x) A as pairs (r_tok', a_tok')."""

    name: str
    algebra: Algebra
    instance: MhaInstance
    rho_r: PairRule

    def rho_r_vec(self, x: FinVec, a: FinVec) -> FinVec:
        return bilinear(self.rho_r)(x, a)


def tensor_comodule(target: Algebra, instance: MhaInstance) -> GlobalComodule:
    """L (x) A with the coaction 1 (x) Delta, covered through delta_r; the
    ambient's basis pairs the basis of L with the basis of A."""
    ambient = tensor_square_algebra(target, instance.algebra)

    def rho_r(pair, a):
        l, u = pair
        return instance.delta_r(u, a).map_tokens(lambda p: ((l, p[0]), p[1]))

    return GlobalComodule(
        name=f"tensor-comodule:{target.name}",
        algebra=ambient,
        instance=instance,
        rho_r=rho_r,
    )


def trivial_coaction(target: Algebra, instance: MhaInstance, e: FinVec) -> PartialCoactionData:
    """rho(x) = x (x) e for a quasi-counitary idempotent e, E = 1 (x) e.

    Over functions-on-G with e = delta_1 this is the basic genuinely
    partial example; over a group algebra with e its unit it is global.
    """
    window = instance.basis_window()
    A = instance.algebra

    def rho_r(x, a):
        return tensor(FinVec.basis(x), A.mul(e, FinVec.basis(a)))

    def rho_l(a, x):
        return tensor(FinVec.basis(x), A.mul(FinVec.basis(a), e))

    if target.basis is None:
        raise CapabilityError("trivial coaction needs a finite coacted algebra")
    ambient = tensor_square_algebra(target, A)
    pair_window = tuple((l, u) for l in target.basis for u in window)

    # E = 1 (x) e multiplies a pair (l, u) exactly as rho covers l by u
    E = Multiplier.from_rules(
        ambient, lambda p: rho_r(*p), lambda p: rho_l(p[1], p[0]), pair_window
    )
    return PartialCoactionData(
        name=f"trivial:{target.name}|{instance.name}",
        target=target,
        instance=instance,
        rho_r=rho_r,
        rho_l=rho_l,
        E=E,
    )


def mutate_coaction(C: PartialCoactionData, kind: str) -> PartialCoactionData:
    """Deliberately broken variants used as negative controls."""
    if kind == "e_scale":
        bad = C.E._replace(
            left={t: v.scale(2) for t, v in C.E.left.items()},
            right={t: v.scale(2) for t, v in C.E.right.items()})
        return C._replace(name=f"{C.name}#e_scale", E=bad)
    if kind == "rho_drop":
        first = C.target_basis()[0]

        def rho_r(x, a):
            if x == first:
                return FinVec()
            return C.rho_r(x, a)

        def rho_l(a, x):
            if x == first:
                return FinVec()
            return C.rho_l(a, x)

        return C._replace(name=f"{C.name}#rho_drop", rho_r=rho_r, rho_l=rho_l)
    raise CapabilityError(f"unknown coaction mutation {kind!r}")


def _coassoc_sides(inst: MhaInstance, rho_r, e_left, x, a, b):
    """Both sides of the right-covered coassociativity law at (x, a, b),
    and the right side before E is applied: (lhs, rhs, unrestricted), on
    tokens (l, u, w) of L (x) A (x) A."""
    lhs = on_legs(lambda l: rho_r(l, a), rho_r(x, b), 0, 1)
    # tokens (l, t, b_i), then (l, u, w) with u (x) w = Delta(t)(1 (x) b_i)
    covered = on_legs(lambda ai: rho_r(x, ai), inst.t1_inv(a, b), 0, 1)
    unrestricted = on_legs(inst.delta_r, covered, 1, 3)
    return lhs, on_legs(e_left, unrestricted, 0, 2), unrestricted


def _coassoc_sym_sides(inst: MhaInstance, rho_l, e_right, x, a, b):
    """Both sides of the left-covered symmetric law at (x, a, b), on
    tokens (l, u, w) of L (x) A (x) A."""
    lhs = on_legs(lambda l: rho_l(a, l), rho_l(b, x), 0, 1)
    # (1 (x) b_j)rho(x) with u (x) w = (a_j (x) 1)Delta(t) on its leg t
    covered = on_legs(
        lambda aj, bj: on_legs(lambda t: inst.delta_l(aj, t), rho_l(bj, x), 1, 2),
        inst.t2_inv(a, b), 0, 2)
    return lhs, on_legs(e_right, covered, 0, 2)


def check_partial_coaction(C: PartialCoactionData, window=None):
    """Full axiom battery for a covered partial coaction.  rho_r, rho_l
    and the slot maps of E are tabulated for the call, each pair
    evaluated once."""
    win = C.instance.basis_window(window)
    lbasis = C.target_basis()
    L = C.target
    inst = C.instance
    A = inst.algebra
    rho_r, rho_l = once_per_pair(C.rho_r), once_per_pair(C.rho_l)
    e_left = once_per_pair(lambda l, u: C.E.apply_left(FinVec.basis((l, u))))
    e_right = once_per_pair(lambda l, u: C.E.apply_right(FinVec.basis((l, u))))
    results = []

    def stacked(x):
        return from_grades({a: rho_r(x, a) for a in win})

    kern = spans.kernel_of_map(lbasis, stacked)
    results.append(CheckResult.law(
        "rho_injective", [{"kernel": k} for k in kern], dim=len(lbasis)))

    witnesses = list(multiplier_check(C.E).witnesses)
    if not is_idempotent_multiplier(C.E):
        witnesses.append({"law": "E*E = E"})
    # E = sum m_i (x) a_i with m_i acting only on the first slot:
    # E(l (x) ab) = (E(l (x) a))(1 (x) b) and the right-handed mirror.
    for l in lbasis:
        lv = FinVec.basis(l)
        for a in win:
            for b in win:
                lhs = on_legs(e_left, tensor(lv, A.mul_basis(a, b)), 0, 2)
                if lhs != on_legs(lambda u: tensor(A.mul_basis(u, b)), e_left(l, a), 1, 2):
                    witnesses.append({"law": "E(l (x) ab) = E(l (x) a)(1 (x) b)", "triple": (l, a, b)})
                rhs = on_legs(e_right, tensor(lv, A.mul_basis(b, a)), 0, 2)
                if rhs != on_legs(lambda u: tensor(A.mul_basis(b, u)), e_right(l, a), 1, 2):
                    witnesses.append({"law": "(l (x) ba)E = (1 (x) b)((l (x) a)E)", "triple": (l, a, b)})
    results.append(CheckResult.law("e_multiplier", witnesses[:6]))

    hom_wit = []
    for x in lbasis:
        xv = FinVec.basis(x)
        for y in lbasis:
            prod = L.mul(xv, FinVec.basis(y))
            for a in win:
                direct = linear(lambda l: rho_r(l, a))(prod)
                # x0 y0 (x) x1 y1 a: rho(x)(1 (x) t) on the leg t of
                # rho(y)(1 (x) a), then the product of the two L legs
                composed = on_legs(
                    lambda l, l2: tensor(L.mul_basis(l2, l)),
                    on_legs(lambda t: rho_r(x, t), rho_r(y, a), 1, 2), 0, 2)
                if direct != composed:
                    hom_wit.append({"pair": (x, y), "cover": a})
    results.append(CheckResult.law("rho_homomorphism", hom_wit[:4]))

    cov_wit = []
    sym_wit = []
    # whether the law holds with E left out, for `global_characterization`
    law_unrestricted = True
    for x in lbasis:
        for a in win:
            for b in win:
                lhs, rhs, unrestricted = _coassoc_sides(inst, rho_r, e_left, x, a, b)
                if lhs != rhs:
                    cov_wit.append({"triple": (x, a, b)})
                if lhs != unrestricted:
                    law_unrestricted = False
                lhs, rhs = _coassoc_sym_sides(inst, rho_l, e_right, x, a, b)
                if lhs != rhs:
                    sym_wit.append({"triple": (x, a, b)})
    results.append(CheckResult.law(
        "coassoc_covered", cov_wit[:4], triples=len(lbasis) * len(win) ** 2))
    results.append(CheckResult.law("coassoc_covered_symmetric", sym_wit[:4]))

    absorb_wit = []
    for x in lbasis:
        for a in win:
            rv = rho_r(x, a)
            if on_legs(e_left, rv, 0, 2) != rv:
                absorb_wit.append({"law": "E rho(x) = rho(x)", "pair": (x, a)})
            lv = rho_l(a, x)
            if on_legs(e_right, lv, 0, 2) != lv:
                absorb_wit.append({"law": "rho(x) E = rho(x)", "pair": (x, a)})
    results.append(CheckResult.law("e_absorbs_rho", absorb_wit[:4]))

    counit_wit = []
    for x in lbasis:
        for a in win:
            rec = on_legs(lambda t: FinVec.basis((), inst.counit(t)), rho_r(x, a), 1, 2)
            if rec != FinVec.basis((x,), inst.counit(a)):
                counit_wit.append({"pair": (x, a)})
    results.append(CheckResult.law("counit_recovery", counit_wit[:4]))

    e_is_identity = all(e_left(*t) == e_right(*t) == FinVec.basis(t) for t in C.E.window)
    witnesses = [] if e_is_identity == law_unrestricted else [
        {"e_identity": e_is_identity, "unrestricted_law": law_unrestricted}]
    results.append(CheckResult.law(
        "global_characterization", witnesses, global_coaction=e_is_identity))
    return results


def check_coaction_range(C: PartialCoactionData, window=None):
    """rho(L)(1 (x) A) = E(L (x) A) and its left-handed mirror, exactly."""
    win = C.instance.basis_window(window)
    lbasis = C.target_basis()
    rho_right = [C.rho_r(x, a) for x in lbasis for a in win]
    rho_left = [C.rho_l(a, x) for x in lbasis for a in win]
    e_right = [C.E.apply_left(FinVec.basis((x, a))) for x in lbasis for a in win]
    e_left = [C.E.apply_right(FinVec.basis((x, a))) for x in lbasis for a in win]
    results = []
    for nm, sub, sup in (
        ("range_right", rho_right, e_right),
        ("range_left", rho_left, e_left),
    ):
        wit = []
        w1 = spans.subspace_le(sub, sup)
        if w1 is not None:
            wit.append({"direction": "rho inside E-range", "element": w1})
        w2 = spans.subspace_le(sup, sub)
        if w2 is not None:
            wit.append({"direction": "E-range inside rho", "element": w2})
        results.append(CheckResult.law(nm, wit, dim=spans.Span(sup).rank))
    return results


def check_quasi_counitary(instance: MhaInstance, e: FinVec, window=None):
    """Central idempotent with Delta(e)(e (x) 1) = e (x) e and counit 1."""
    if not instance.is_regular():
        raise CapabilityError(f"{instance.name} is not regular; flipped coverage unavailable")
    win = instance.basis_window(window)
    A = instance.algebra
    results = []

    wit = [
        {"token": b}
        for b in win
        if A.mul(e, FinVec.basis(b)) != A.mul(FinVec.basis(b), e)
    ]
    results.append(CheckResult.law("central", wit[:4]))
    results.append(CheckResult.law(
        "idempotent", [{"element": str(e)}] if A.mul(e, e) != e else []))
    lhs = bilinear(instance.delta_r_flip)(e, e)
    results.append(CheckResult.law(
        "covered_identity",
        [{"law": "Delta(e)(e (x) 1) = e (x) e"}] if lhs != tensor(e, e) else []))
    eps = instance.counit_vec(e)
    results.append(CheckResult.law("counit_one", [{"value": str(eps)}] if eps != 1 else []))
    return results


class DualFunctional(NamedTuple):
    """Finitely supported functional on A's basis, optionally sandwiched.

    Realizes omega(a _ b): evaluation against a vector t computes
    omega(a t b).  For pointwise instances the sandwich only rescales
    coordinates, so products normalize it away.
    """

    table: FinVec
    left: Optional[FinVec] = None
    right: Optional[FinVec] = None

    def normalized(self, instance: MhaInstance) -> "DualFunctional":
        if not instance.algebra.pointwise:
            raise CapabilityError("sandwich normalization needs a pointwise instance")

        def weight(t, c):
            if self.left is not None:
                c = c * self.left[t]
            if self.right is not None:
                c = c * self.right[t]
            return c

        return DualFunctional(table=FinVec((t, weight(t, c)) for t, c in self.table.items()))

    def eval_left(self, instance: MhaInstance, t) -> Fraction:
        vec = FinVec.basis(t)
        if self.left is not None:
            vec = instance.algebra.mul(self.left, vec)
        return sum((self.table[s] * c for s, c in vec.items()), Fraction(0))


def dual_act(coact, omega: DualFunctional, x: FinVec) -> FinVec:
    """omega(a _ b) |>  x  =  (1 (x) omega(a _ ))(rho(x)(1 (x) b))."""
    inst = coact.instance
    if inst.algebra.pointwise:
        w = omega.normalized(inst)
        return lincomb(
            (FinVec.basis(l), cc * cv)
            for c, cc in w.table.items()
            for (l, t), cv in coact.rho_r_vec(x, FinVec.basis(c)).items()
            if t == c
        )
    if omega.right is None:
        raise CapabilityError("functional needs a right sandwich to cover the coaction")
    return lincomb(
        (FinVec.basis(l), cb * cv * omega.eval_left(inst, t))
        for b, cb in omega.right.items()
        for (l, t), cv in coact.rho_r_vec(x, FinVec.basis(b)).items()
    )


def dual_mul(instance: MhaInstance, w1: DualFunctional, w2: DualFunctional) -> DualFunctional:
    """Convolution product (w1 * w2)(c) = sum w1(c_1) w2(c_2).

    Closed form for pointwise instances: the covers of c are the group
    factorizations c = p q, so the tables convolve over the group.
    """
    group = instance.algebra.group
    if not instance.algebra.pointwise or group is None:
        raise CapabilityError("dual functional product is available for pointwise instances only")
    t1 = w1.normalized(instance).table
    t2 = w2.normalized(instance).table
    tab = bilinear(lambda p, q: FinVec.basis(group.mul(p, q)))(t1, t2)
    return DualFunctional(table=tab)


def _components(img: FinVec):
    """Split a vector on (r, a) pairs into {a: partial vector on r}.

    Keys come in the order of their first pair in `token_key` order, the
    order in which witnesses name them."""
    comps = {}
    for r, a in img.support():
        comps.setdefault(a, {})[r] = img[(r, a)]
    return {a: FinVec(part) for a, part in comps.items()}


def generated_subcomodule(com: GlobalComodule, elems: Sequence[FinVec], window=None) -> tuple:
    """Basis of the subalgebra generated by the first-slot components of
    rho(u)(1 (x) a), for u in `elems` and a in the window.

    The product closure runs to its fixed point: every round that does not
    stop raises the dimension, so it ends inside a finite-dimensional
    comodule algebra.  Whether the result is a subcomodule is the
    `comodule_algebra` line of `check_coglobalization`.
    """
    win = com.instance.basis_window(window)
    seeds = [
        comp
        for u in elems
        for a in win
        for comp in _components(com.rho_r_vec(u, FinVec.basis(a))).values()
        if comp
    ]
    basis = spans.span_basis(seeds)
    while True:
        span = spans.Span(basis)
        fresh = []
        for v in basis:
            for w in basis:
                prod = com.algebra.mul(v, w)
                if prod and not span.contains(prod):
                    fresh.append(prod)
        if not fresh:
            return tuple(basis)
        basis = spans.span_basis(list(basis) + fresh)


class CoactionGlobalization(NamedTuple):
    """Enveloping coaction of a partial coaction inside L (x) A.

    The envelope is the comodule algebra generated by theta(L) under
    1 (x) Delta, theta(x) = rho(x)(1 (x) e), and pi cuts the ambient back
    onto theta(L) through v |-> E(1 (x) e)v.
    """

    name: str
    base: PartialCoactionData
    comodule: GlobalComodule
    q_basis: tuple
    theta_map: Mapping
    e: FinVec
    pi_rule: Callable[[FinVec], FinVec]

    def theta(self, x: FinVec) -> FinVec:
        return linear(self.theta_map.__getitem__)(x)

    def pi(self, v: FinVec) -> FinVec:
        return self.pi_rule(v)

    def theta_basis(self):
        return [self.theta_map[t] for t in self.base.target_basis()]


def coaction_globalize(C: PartialCoactionData, e: FinVec) -> CoactionGlobalization:
    """Build the envelope of a partial coaction with a quasi-counitary
    idempotent e; nothing here checks those laws of its input."""
    com = tensor_comodule(C.target, C.instance)
    theta_map = {x: C.rho_r_vec(FinVec.basis(x), e) for x in C.target_basis()}
    gens = [theta_map[x] for x in C.target_basis()]
    q_basis = generated_subcomodule(com, gens)

    A = C.instance.algebra

    def pi_rule(v):
        # E(1 (x) e)v
        return C.E.apply_left(on_legs(lambda u: tensor(A.mul(e, FinVec.basis(u))), v, 1, 2))

    return CoactionGlobalization(
        name=f"envelope:{C.name}",
        base=C,
        comodule=com,
        q_basis=q_basis,
        theta_map=theta_map,
        e=e,
        pi_rule=pi_rule,
    )


def with_identity_pi(G: CoactionGlobalization) -> CoactionGlobalization:
    """Negative control: forget the cut-down and use pi = id."""
    return G._replace(name=f"{G.name}#pi_identity", pi_rule=lambda v: v)


def _pi_tensor(G: CoactionGlobalization, triple: FinVec) -> FinVec:
    # (pi (x) 1) on vectors over ((l, u), w)
    return lincomb(
        (G.pi(comp).map_tokens(lambda pair, w=w: (pair, w)), 1)
        for w, comp in _components(triple).items()
    )


def check_coglobalization(G: CoactionGlobalization, window=None):
    """Verification battery for the enveloping coaction.  The projection
    of each basis vector of Q is computed once per call and shared by
    `pi_projection`, `e_projection` and `unital_specialization`."""
    C = G.base
    win = C.instance.basis_window(window)
    lbasis = C.target_basis()
    com = G.comodule
    results = []

    theta_vecs = G.theta_basis()
    # theta as a map from the L leg of a tensor to its Q leg
    theta_leg = {x: tensor(G.theta_map[x]) for x in lbasis}.__getitem__
    q_span = spans.Span(G.q_basis)
    theta_span = spans.Span(theta_vecs)
    closed_wit = []
    for v in G.q_basis:
        for w in G.q_basis:
            prod = com.algebra.mul(v, w)
            if prod and not q_span.contains(prod):
                closed_wit.append({"law": "product closure"})
        for a in win:
            for tok, comp in _components(com.rho_r_vec(v, FinVec.basis(a))).items():
                if comp and not q_span.contains(comp):
                    closed_wit.append({"law": "subcomodule", "cover": a, "component_at": tok})
    results.append(CheckResult.law(
        "comodule_algebra", closed_wit[:4], dim=len(G.q_basis)))

    mono_wit = [{"kernel": k} for k in spans.kernel_of_map(lbasis, lambda t: G.theta_map[t])]
    for x in lbasis:
        for y in lbasis:
            lhs = G.theta(C.target.mul(FinVec.basis(x), FinVec.basis(y)))
            rhs = com.algebra.mul(G.theta_map[x], G.theta_map[y])
            if lhs != rhs:
                mono_wit.append({"law": "multiplicative", "pair": (x, y)})
    results.append(CheckResult.law("theta_monomorphism", mono_wit[:4]))

    ideal_wit = []
    for x in lbasis:
        for v in G.q_basis:
            prod = com.algebra.mul(G.theta_map[x], v)
            if prod and not theta_span.contains(prod):
                ideal_wit.append({"left": x})
    results.append(CheckResult.law("theta_right_ideal", ideal_wit[:4]))

    proj_wit = []
    for x in lbasis:
        if G.pi(G.theta_map[x]) != G.theta_map[x]:
            proj_wit.append({"law": "pi restricts to the identity on theta(L)", "token": x})
    pi_image = [G.pi(v) for v in G.q_basis]
    if not spans.subspace_equal(pi_image, theta_vecs):
        proj_wit.append({"law": "pi(Q) = theta(L)"})
    for v, pv in zip(G.q_basis, pi_image):
        for w, pw in zip(G.q_basis, pi_image):
            if G.pi(com.algebra.mul(v, w)) != com.algebra.mul(pv, pw):
                proj_wit.append({"law": "multiplicative"})
                break
        else:
            continue
        break
    results.append(CheckResult.law("pi_projection", proj_wit[:4]))

    eproj_wit = []
    for i, (v, pv) in enumerate(zip(G.q_basis, pi_image)):
        lhs = _pi_tensor(G, com.rho_r_vec(pv, G.e))
        inner = _pi_tensor(G, com.rho_r_vec(v, G.e))
        terms = []
        for w, comp in _components(inner).items():
            coords = theta_span.coords(comp, lbasis)
            if coords is None:
                eproj_wit.append({"basis_index": i, "reason": "projection left theta(L)"})
                break
            # Phi(E)(theta(z) (x) w) = (theta (x) 1)(E (z (x) w))
            ez = C.E.apply_left(tensor(coords, FinVec.basis(w)))
            terms.append((on_legs(theta_leg, ez, 0, 1), 1))
        else:
            if lhs != lincomb(terms):
                eproj_wit.append({"basis_index": i})
    results.append(CheckResult.law("e_projection", eproj_wit[:4]))

    compat_wit = []
    for x in lbasis:
        lhs = on_legs(theta_leg, C.rho_r_vec(FinVec.basis(x), G.e), 0, 1)
        rhs = _pi_tensor(G, com.rho_r_vec(G.theta_map[x], G.e))
        if lhs != rhs:
            compat_wit.append({"token": x})
    results.append(CheckResult.law("theta_coaction_compat", compat_wit[:4]))

    regen = generated_subcomodule(com, theta_vecs, win)
    gen_wit = [] if spans.subspace_equal(regen, G.q_basis) else [{"dim": len(regen)}]
    results.append(CheckResult.law("generation", gen_wit, dim=len(G.q_basis)))

    if C.target.one is None:
        results.append(CheckResult.inconclusive("unital_specialization", "coacted algebra has no unit"))
    else:
        one_theta = G.theta(C.target.one)
        uni_wit = [
            {"basis_index": i}
            for i, (v, pv) in enumerate(zip(G.q_basis, pi_image))
            if pv != com.algebra.mul(one_theta, v)
        ]
        results.append(CheckResult.law("unital_specialization", uni_wit[:4]))
    return results
