"""Right-multiplier homomorphism algebras.

An element f(_a) acts on the source by b |-> f(ba).  When right
multiplication by any fixed element has finite-dimensional image (the
function-algebra family; flagged hom_right_finite on the instance), every
such element collapses to a finitely supported table F(g) = f(delta_g a),
and that table is the whole extensional content of the map.  Convolution,
the module action a |> f(_b) = f(_ab), and the convolutive-inverse laws for
the antipode are all computed on collapsed tables through covered
comultiplication only.
"""

from __future__ import annotations

from typing import Callable

from .algebras import Algebra, local_unit
from .errors import CapabilityError, NoLocalUnitError, StructuralError
from .mha import MhaInstance
from .reports import CheckResult
from .vectors import FinVec, bilinear, bilinear_sum, lincomb, linear, once_per_pair, token_key

Rule = Callable[[object], FinVec]


class HomRElem:
    """Collapsed table of one right-multiplier homomorphism element."""

    __slots__ = ("source", "target", "_table")

    def __init__(self, source: MhaInstance, target: Algebra, table=()):
        if not source.hom_right_finite:
            raise CapabilityError(
                f"{source.name} does not collapse right multiplications to "
                "finite tables"
            )
        self.source = source
        self.target = target
        terms = {}
        items = table.items() if isinstance(table, dict) else table
        for g, val in items:
            if not isinstance(val, FinVec):
                raise StructuralError("table values must be target vectors")
            terms.setdefault(g, []).append((val, 1))
        sums = ((g, lincomb(vals)) for g, vals in terms.items())
        self._table = {g: v for g, v in sums if v}

    def support(self):
        return sorted(self._table, key=token_key)

    def value(self, g) -> FinVec:
        return self._table.get(g, FinVec())

    def items(self):
        return [(g, self._table[g]) for g in self.support()]

    def is_zero(self) -> bool:
        return not self._table

    def __add__(self, other: "HomRElem") -> "HomRElem":
        _same_spaces(self, other)
        return hom_lincomb(self.source, self.target, ((self, 1), (other, 1)))

    def scale(self, c) -> "HomRElem":
        return _summed(
            self.source, self.target,
            {g: v.scale(c) for g, v in self._table.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomRElem):
            return NotImplemented
        return (
            self.source is other.source
            and self.target is other.target
            and self._table == other._table
        )

    __hash__ = None

    def __repr__(self) -> str:
        parts = [f"{g!r}: {v!r}" for g, v in self.items()]
        return "HomRElem{" + ", ".join(parts) + "}"


def hom_lincomb(source: MhaInstance, target: Algebra, pairs) -> HomRElem:
    """Sum of coeff * H over (H, coeff) pairs, summed tablewise."""
    return HomRElem(source, target, (
        (g, v.scale(c)) for H, c in pairs for g, v in H._table.items()
    ))


def _summed(source: MhaInstance, target: Algebra, table: dict) -> HomRElem:
    """The element whose table is `table`, which already holds one summed
    value per group element.  Zero values are dropped; nothing is summed
    again, and `source` is one that a `HomRElem` was already built on."""
    out = HomRElem.__new__(HomRElem)
    out.source = source
    out.target = target
    out._table = {g: v for g, v in table.items() if v}
    return out


def _same_spaces(F: HomRElem, G: HomRElem) -> None:
    if F.source is not G.source or F.target is not G.target:
        raise StructuralError("operands live over different source or target")


def support_indicator(F: HomRElem) -> FinVec:
    """The canonical covering element: f(_a) with a the support indicator
    reproduces the table exactly."""
    return FinVec((g, 1) for g in F.support())


def conv_mul(F: HomRElem, G: HomRElem) -> HomRElem:
    """Convolution product, closed group form (F*G)(c) = sum_{pq=c} F(p)G(q).

    The (p, q) pairs of table entries are grouped by their group product
    pq, and each group's sum of target products is accumulated at once by
    `bilinear_sum` on the target's basis product: no target vector is
    built per pair, and the finished table is not summed again."""
    _same_spaces(F, G)
    group = F.source.algebra.group
    if group is None:
        return conv_mul_generic(F, G)
    by_product = {}
    for p, fp in F._table.items():
        for q, gq in G._table.items():
            by_product.setdefault(group.mul(p, q), []).append((fp, gq))
    mul_basis = F.target.mul_basis
    return _summed(F.source, F.target, {
        c: bilinear_sum(mul_basis, pairs) for c, pairs in by_product.items()
    })


def conv_mul_generic(F: HomRElem, G: HomRElem) -> HomRElem:
    """Convolution through coverage only: write a (x) b = sum_i c_i
    T1(p_i (x) q_i) for the support indicators a, b, then collapse each
    piece h_i(_p_i) with h_i = mu (f (x) g) (Delta(.)(1 (x) q_i))."""
    _same_spaces(F, G)
    M = F.source
    piece = linear(lambda uw: F.target.mul(F.value(uw[0]), G.value(uw[1])))
    pairs = bilinear(M.t1_inv)(support_indicator(F), support_indicator(G))
    terms = {}
    for (p, q), coeff in pairs.items():
        terms.setdefault(p, []).append((piece(M.delta_r(p, q)), coeff))
    return _summed(F.source, F.target, {p: lincomb(t) for p, t in terms.items()})


def module_act(a, F: HomRElem) -> HomRElem:
    """a |> f(_b) = f(_ab); on tables (a |> F)(g) = a(g) F(g)."""
    if not isinstance(a, FinVec):
        a = FinVec.basis(a)
    return _summed(
        F.source, F.target,
        {g: F.value(g).scale(a[g]) for g in F.support() if a[g] != 0},
    )


def check_conv_associative(samples: list[HomRElem]) -> CheckResult:
    """(F*G)*H = F*(G*H) on every triple of samples.  Each pair product
    F*G is computed once per call, so n samples take n^2 + 2 n^3
    products."""
    pair = once_per_pair(lambda i, j: conv_mul(samples[i], samples[j]))
    witnesses = []
    for i, F in enumerate(samples):
        for j, G in enumerate(samples):
            for k, H in enumerate(samples):
                left = conv_mul(pair(i, j), H)
                right = conv_mul(F, pair(j, k))
                if left != right:
                    witnesses.append({"triple": (F, G, H), "left": left, "right": right})
                    if len(witnesses) >= 2:
                        return CheckResult.law("conv_associative", witnesses)
    return CheckResult.law("conv_associative", witnesses, triples=len(samples) ** 3)


def check_conv_paths_agree(samples: list[HomRElem]) -> CheckResult:
    witnesses = []
    for F in samples:
        for G in samples:
            closed = conv_mul(F, G)
            covered = conv_mul_generic(F, G)
            if closed != covered:
                witnesses.append({"pair": (F, G), "closed": closed, "covered": covered})
    return CheckResult.law("conv_paths_agree", witnesses[:3], pairs=len(samples) ** 2)


def check_module_algebra(
    M: MhaInstance,
    R: Algebra,
    window=None,
    *,
    samples: list[HomRElem],
    act=module_act,
) -> list[CheckResult]:
    """Module law, support local units acting as units, and the covered
    product law a |> (F*G) = sum (a_1 |> F) * (a_2 e |> G) on `samples`."""
    window = M.basis_window(window)
    results = []

    witnesses = []
    for g in window:
        for h in window:
            gh = M.algebra.mul_basis(g, h)
            for F in samples:
                left = act(g, act(h, F))
                right = _act_vec(act, gh, F)
                if left != right:
                    witnesses.append({"pair": (g, h), "F": F, "left": left, "right": right})
    results.append(CheckResult.law(
        "module_law", witnesses[:3], pairs=len(window) ** 2, samples=len(samples)))

    witnesses = []
    for F in samples:
        if F.is_zero():
            continue
        try:
            e = local_unit(M.algebra, [support_indicator(F)])
        except NoLocalUnitError as exc:
            raise CapabilityError(f"no covering local unit: {exc}") from exc
        if _act_vec(act, e, F) != F:
            witnesses.append({"F": F, "unit": e, "acted": _act_vec(act, e, F)})
    results.append(CheckResult.law(
        "local_units_act_as_units", witnesses[:3], samples=len(samples)))

    witnesses = []
    for F in samples:
        for G in samples:
            if G.is_zero():
                continue
            e = local_unit(M.algebra, [support_indicator(G)])
            for a in window:
                left = _act_vec(act, FinVec.basis(a), conv_mul(F, G))
                pairs = bilinear(M.delta_r)(FinVec.basis(a), e)
                right = hom_lincomb(M, R, (
                    (conv_mul(_act_vec(act, FinVec.basis(u), F),
                              _act_vec(act, FinVec.basis(v), G)), c)
                    for (u, v), c in pairs.items()
                ))
                if left != right:
                    witnesses.append({"a": a, "F": F, "G": G, "left": left, "right": right})
    results.append(CheckResult.law(
        "covered_product_law", witnesses[:3], window=len(window), samples=len(samples)))
    return results


def _act_vec(act, a: FinVec, F: HomRElem) -> HomRElem:
    if not isinstance(a, FinVec):
        a = FinVec.basis(a)
    return hom_lincomb(F.source, F.target, ((act(g, F), c) for g, c in a.items()))


def check_convolutive_inverse(
    M: MhaInstance,
    f_rule: Rule,
    g_rule: Rule,
    test_elems,
    window=None,
) -> CheckResult:
    """Both defining identities of a convolutive inverse, evaluated at every
    window point d against eps(d) a.

    (i)  sum f(d_1 b) g(d_2 a) = eps(d) a   covered by Delta(d)(1 (x) a)
    (ii) sum g(a d_1) f(b d_2) = eps(d) a   covered by (a (x) 1) Delta(d)

    with b solved from a covering local unit u through b = S^{-1}(u), so
    that S(b) a = a = a S(b).
    """
    if not M.is_regular():
        raise CapabilityError(f"{M.name} is not regular: cannot solve for b")
    window = M.basis_window(window)
    f_vec = linear(f_rule)
    witnesses = []
    checked = 0
    for a in test_elems:
        if not isinstance(a, FinVec):
            a = FinVec.basis(a)
        try:
            u = local_unit(M.algebra, [a])
        except NoLocalUnitError as exc:
            raise CapabilityError(
                f"no local unit covering {a!r}: {exc}"
            ) from exc
        b = M.antipode_inv_vec(u)
        for d in window:
            expected = a.scale(M.counit(d))
            lhs = linear(
                lambda pw: M.algebra.mul(f_vec(M.algebra.mul(FinVec.basis(pw[0]), b)), g_rule(pw[1]))
            )(bilinear(M.delta_r)(FinVec.basis(d), a))
            if lhs != expected:
                witnesses.append(
                    {"item": "i", "a": a, "d": d, "value": lhs, "expected": expected}
                )
            rhs = linear(
                lambda st: M.algebra.mul(g_rule(st[0]), f_vec(M.algebra.mul(b, FinVec.basis(st[1]))))
            )(bilinear(M.delta_l)(a, FinVec.basis(d)))
            if rhs != expected:
                witnesses.append(
                    {"item": "ii", "a": a, "d": d, "value": rhs, "expected": expected}
                )
            checked += 1
            if len(witnesses) >= 6:
                return CheckResult.law("convolutive_inverse", witnesses)
    return CheckResult.law("convolutive_inverse", witnesses, evaluations=checked)
