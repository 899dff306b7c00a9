"""Right-multiplier homomorphism algebras.

An element f(_a) acts on the source by b |-> f(ba).  When right
multiplication by any fixed element has finite-dimensional image (the
function-algebra family, whose algebra is pointwise), every such element
collapses to a finitely supported table F(g) = f(delta_g a), and that
table is the whole extensional content of the map.  A table is a
vector of `algebras.convolution_algebra` on tokens (g, t): the
coefficient of (g, t) is that of t in F(g).  The standard envelope lives
in the same algebra, so the convolution laws below certify the product the
envelope multiplies with: `conv_mul` applies the one graded rule
`vectors.graded_mul` to whole tables, and `conv_mul_generic` recomputes it
through covered comultiplication only.  `check_convolution` checks
associativity and the agreement of the two paths on one table of pair
products.  The module action is the token rule a |> (g, t) = [a = g] (g, t),
which `globalize` uses as well.
"""

from __future__ import annotations

from typing import Callable

from .algebras import Algebra, local_unit
from .errors import CapabilityError, NoLocalUnitError
from .mha import MhaInstance, function_algebra
from .reports import CheckResult
from .vectors import (
    FinVec,
    bilinear,
    from_grades,
    graded_mul,
    grades,
    lincomb,
    linear,
    once_per_pair,
    token_key,
)

Rule = Callable[[object], FinVec]


def require_tables(M: MhaInstance) -> None:
    """Raise unless the right-multiplier homomorphisms of `M` collapse to
    finite tables that `conv_mul` may convolve with the group product: the
    algebra is pointwise and T1 equals that of `function_algebra` on every
    window pair.  Called wherever a table is built."""
    if not M.algebra.pointwise:
        raise CapabilityError(
            f"{M.name} does not collapse right multiplications to finite tables"
        )
    closed = function_algebra(M.algebra.group).delta_r
    window = M.basis_window()
    if any(M.delta_r(a, b) != closed(a, b) for a in window for b in window):
        raise CapabilityError(
            f"{M.name} does not have its group's Delta: "
            "tables would convolve with the wrong product"
        )


def support_indicator(F: FinVec) -> FinVec:
    """The canonical covering element: f(_a) with a the support indicator
    reproduces the table exactly."""
    support = {g for (g, _), _ in F.items()}
    return FinVec((g, 1) for g in sorted(support, key=token_key))


def conv_mul(M: MhaInstance, R: Algebra, F: FinVec, G: FinVec) -> FinVec:
    """Convolution product, closed group form (F*G)(c) = sum_{pq=c} F(p)G(q),
    by the graded rule of the convolution algebra on whole tables."""
    return graded_mul(M.algebra.group.mul, R.mul_basis, F, G)


def conv_mul_generic(M: MhaInstance, R: Algebra, F: FinVec, G: FinVec) -> FinVec:
    """Convolution through coverage only: write a (x) b = sum_i c_i
    T1(p_i (x) q_i) for the support indicators a, b, then collapse each
    piece h_i(_p_i) with h_i = mu (f (x) g) (Delta(.)(1 (x) q_i))."""
    Fg, Gg = grades(F), grades(G)
    piece = linear(lambda uw: R.mul(Fg.get(uw[0], FinVec()), Gg.get(uw[1], FinVec())))
    pairs = bilinear(M.t1_inv)(support_indicator(F), support_indicator(G))
    terms = {}
    for (p, q), coeff in pairs.items():
        terms.setdefault(p, []).append((piece(M.delta_r(p, q)), coeff))
    return from_grades({p: lincomb(t) for p, t in terms.items()})


def module_act(a, tok) -> FinVec:
    """a |> f(_b) = f(_ab); on tables (a |> F)(g) = a(g) F(g), so on tokens
    a |> (g, t) = [a = g] (g, t)."""
    return FinVec.basis(tok) if a == tok[0] else FinVec()


def check_convolution(M: MhaInstance, R: Algebra, samples: list[FinVec]) -> list[CheckResult]:
    """`conv_associative`: (F*G)*H = F*(G*H) on every triple of samples;
    `conv_paths_agree`: `conv_mul` and `conv_mul_generic` give the same
    F*G on every pair.  Each pair product F*G is computed once per call
    and serves both lines, so n samples take n^2 + 2 n^3 products by
    `conv_mul` and n^2 by `conv_mul_generic`."""
    pair = once_per_pair(lambda i, j: conv_mul(M, R, samples[i], samples[j]))

    def associativity():
        witnesses = []
        for i, F in enumerate(samples):
            for j, G in enumerate(samples):
                for k, H in enumerate(samples):
                    left = conv_mul(M, R, pair(i, j), H)
                    right = conv_mul(M, R, F, pair(j, k))
                    if left != right:
                        witnesses.append({"triple": (F, G, H), "left": left, "right": right})
                        if len(witnesses) >= 2:
                            return CheckResult.law("conv_associative", witnesses)
        return CheckResult.law("conv_associative", witnesses, triples=len(samples) ** 3)

    results = [associativity()]
    witnesses = []
    for i, F in enumerate(samples):
        for j, G in enumerate(samples):
            covered = conv_mul_generic(M, R, F, G)
            if pair(i, j) != covered:
                witnesses.append({"pair": (F, G), "closed": pair(i, j), "covered": covered})
    results.append(CheckResult.law("conv_paths_agree", witnesses[:3], pairs=len(samples) ** 2))
    return results


def check_module_algebra(
    M: MhaInstance,
    R: Algebra,
    window=None,
    *,
    samples: list[FinVec],
) -> list[CheckResult]:
    """Module law, support local units acting as units, and the covered
    product law a |> (F*G) = sum (a_1 |> F) * (a_2 e |> G) on `samples`.
    Each distinct product of the covered law is computed once per call:
    F*G once per pair of samples, and (u |> F)*(v |> G) once per pair of
    acted samples, with every zero acted sample sharing one key; the local
    unit of each nonzero sample is computed once and serves both laws."""
    window = M.basis_window(window)
    act = bilinear(module_act)
    results = []

    witnesses = []
    for g in window:
        for h in window:
            gh = M.algebra.mul_basis(g, h)
            for F in samples:
                left = act(FinVec.basis(g), act(FinVec.basis(h), F))
                right = act(gh, F)
                if left != right:
                    witnesses.append({"pair": (g, h), "F": F, "left": left, "right": right})
    results.append(CheckResult.law(
        "module_law", witnesses[:3], pairs=len(window) ** 2, samples=len(samples)))

    def unit_of(F):
        try:
            return local_unit(M.algebra, [support_indicator(F)])
        except NoLocalUnitError as exc:
            raise CapabilityError(f"no covering local unit: {exc}") from exc

    units = [None if F.is_zero() else unit_of(F) for F in samples]
    witnesses = []
    for F, e in zip(samples, units):
        if e is not None and act(e, F) != F:
            witnesses.append({"F": F, "unit": e, "acted": act(e, F)})
    results.append(CheckResult.law(
        "local_units_act_as_units", witnesses[:3], samples=len(samples)))

    product = once_per_pair(lambda i, j: conv_mul(M, R, samples[i], samples[j]))
    acted = {}

    def acted_key(u, i):
        # key of u |> samples[i] in `acted`: (u, i), or None for zero
        v = act(FinVec.basis(u), samples[i])
        key = (u, i) if v else None
        acted[key] = v
        return key

    acted_product = once_per_pair(lambda p, q: conv_mul(M, R, acted[p], acted[q]))
    witnesses = []
    for i, F in enumerate(samples):
        for j, G in enumerate(samples):
            e = units[j]
            if e is None:
                continue
            for a in window:
                left = act(FinVec.basis(a), product(i, j))
                pairs = bilinear(M.delta_r)(FinVec.basis(a), e)
                right = lincomb(
                    (acted_product(acted_key(u, i), acted_key(v, j)), c)
                    for (u, v), c in pairs.items()
                )
                if left != right:
                    witnesses.append({"a": a, "F": F, "G": G, "left": left, "right": right})
    results.append(CheckResult.law(
        "covered_product_law", witnesses[:3], window=len(window), samples=len(samples)))
    return results


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
