"""Associative algebras with nondegenerate product, possibly without unit.

An algebra is given by structure constants on basis tokens.  The basis may
be infinite (indexed by a group); checks then run on explicit windows.
Local units replace the missing unit: for pointwise function algebras they
are support-union indicators in closed form, for finite structure-constant
algebras they are found by exact linear solving.

A multiplier, an element of the multiplier algebra M(A), is a record of
two tables on one validity window: U ('multiply from the left') and V
('from the right'), each mapping a window token to its image, with
U(a)b = aV(b), U(ab) = U(a)b, V(ab) = aV(b).  A window token's image is
read from its table; only a vector that may leave the window is applied.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import spans
from .errors import CapabilityError, NoLocalUnitError, StructuralError, WindowError
from .groups import GroupSpec
from .reports import CheckResult
from .vectors import (
    FinVec,
    bilinear,
    format_token,
    from_grades,
    graded_mul,
    lincomb,
    linear,
    once_per_pair,
    tensor,
    token_key,
)


class Algebra(NamedTuple):
    name: str
    mul_basis: Callable[[object, object], FinVec]
    basis: Optional[tuple]
    one: Optional[FinVec] = None
    pointwise: bool = False
    group: Optional[GroupSpec] = None

    def mul(self, x: FinVec, y: FinVec) -> FinVec:
        return bilinear(self.mul_basis)(x, y)

    def is_finite(self) -> bool:
        return self.basis is not None

    def basis_window(self, window=None) -> tuple:
        """The one window rule: an integer n means the first n tokens of the
        basis, a tuple is used as given, None means the whole basis.  The
        basis is read only when the window depends on it."""
        if window is None:
            return self._full_basis()
        if isinstance(window, int):
            return self._full_basis()[:window]
        return tuple(window)

    def _full_basis(self) -> tuple:
        if self.basis is None:
            raise WindowError(f"algebra {self.name} needs an explicit window")
        return self.basis


def pointwise_algebra(group: GroupSpec) -> Algebra:
    """Finitely supported functions on a group under pointwise product."""

    def mul_basis(i, j):
        return FinVec.basis(i) if i == j else FinVec()

    one = None
    if group.elements is not None:
        one = FinVec((g, 1) for g in group.elements)
    return Algebra(
        name=f"functions:{group.name}",
        mul_basis=mul_basis,
        basis=group.elements,
        one=one,
        pointwise=True,
        group=group,
    )


def group_algebra_plain(group: GroupSpec) -> Algebra:
    """Group algebra: basis tokens multiply by the group law, each product
    computed once per ordered pair."""
    return Algebra(
        name=f"groupalg:{group.name}",
        mul_basis=once_per_pair(lambda i, j: FinVec.basis(group.mul(i, j))),
        basis=group.elements,
        one=FinVec.basis(group.identity),
        group=group,
    )


def struct_const_algebra(name, basis, table, one=None) -> Algebra:
    """Finite algebra from an explicit structure-constant table.

    table maps (i, j) to a FinVec (missing pairs multiply to zero).
    """
    basis = tuple(basis)
    table = dict(table)

    def mul_basis(i, j):
        return table.get((i, j), FinVec())

    return Algebra(name=name, mul_basis=mul_basis, basis=basis, one=one)


def tensor_square_algebra(left: Algebra, right: Algebra) -> Algebra:
    """Tensor product algebra on pair tokens (componentwise product)."""
    basis = None
    if left.basis is not None and right.basis is not None:
        basis = tuple(
            (i, j)
            for i in sorted(left.basis, key=token_key)
            for j in sorted(right.basis, key=token_key)
        )

    def mul_basis(p, q):
        (i, j), (k, l) = p, q
        return tensor(left.mul_basis(i, k), right.mul_basis(j, l))

    one = None
    if left.one is not None and right.one is not None:
        one = tensor(left.one, right.one)
    return Algebra(
        name=f"tensor({left.name},{right.name})",
        mul_basis=mul_basis,
        basis=basis,
        one=one,
    )


def convolution_algebra(group: GroupSpec, target: Algebra) -> Algebra:
    """Finitely supported maps group -> target under group convolution.

    Basis token (g, l): the map sending g to basis element l.  Product
    (g, l) * (h, m) = (g h, l m expanded in the target) by
    `vectors.graded_mul`, computed once per ordered pair.
    """
    basis = None
    if group.elements is not None and target.basis is not None:
        basis = tuple(
            (g, l)
            for g in sorted(group.elements, key=token_key)
            for l in target.basis
        )

    def mul_basis(p, q):
        return graded_mul(group.mul, target.mul_basis, FinVec.basis(p), FinVec.basis(q))

    return Algebra(
        name=f"conv({group.name},{target.name})",
        mul_basis=once_per_pair(mul_basis),
        basis=basis,
        group=group,
    )


def check_associative(algebra: Algebra, window=None) -> CheckResult:
    window = algebra.basis_window(window)
    witnesses = []
    for a in window:
        for b in window:
            ab = algebra.mul_basis(a, b)
            for c in window:
                lhs = algebra.mul(ab, FinVec.basis(c))
                rhs = algebra.mul(FinVec.basis(a), algebra.mul_basis(b, c))
                if lhs != rhs:
                    witnesses.append({"triple": (a, b, c), "lhs": lhs, "rhs": rhs})
                    if len(witnesses) >= 3:
                        return CheckResult.law("associativity", witnesses)
    return CheckResult.law("associativity", witnesses, triples=len(window) ** 3)


def local_unit(algebra: Algebra, elems) -> FinVec:
    """Element e with e*x == x == x*e for every x in elems.

    Pointwise algebras: the indicator of the union of supports (closed
    form, works on infinite bases).  Unital algebras: the unit.  Otherwise
    the linear system is solved over the span of the finite basis, free
    coordinates 0; raises NoLocalUnitError when inconsistent.
    """
    elems = [e for e in elems if e]
    if not elems:
        return FinVec()
    if algebra.pointwise:
        return FinVec((t, 1) for t in spans.collect_tokens(elems))
    if algebra.one is not None:
        return algebra.one
    basis = algebra.basis_window()

    def stacked(left, right):
        """left(x_k) graded by ("L", k) plus right(x_k) by ("R", k), over
        the elems x_k: all the equations on one vector."""
        return from_grades({
            (name, k): side(x)
            for k, x in enumerate(elems)
            for name, side in (("L", left), ("R", right))
        })

    # e = sum of c_b b over the basis: column b stacks b*x_k and x_k*b,
    # the target stacks x_k on both sides
    columns = spans.Span(
        stacked(lambda x, b=b: algebra.mul(b, x), lambda x, b=b: algebra.mul(x, b))
        for b in map(FinVec.basis, basis)
    )
    sol = columns.coords(stacked(lambda x: x, lambda x: x), basis)
    if sol is None:
        raise NoLocalUnitError(
            f"no local unit in span of window for {len(elems)} elements"
        )
    return sol


def check_nondegenerate(algebra: Algebra, window=None) -> CheckResult:
    """Windowed two-sided nondegeneracy of the product.

    Fails with a witness x in span(window) with x*b == 0 for every window b
    (or the right-sided mirror).
    """
    window = algebra.basis_window(window)

    def right_images(tok):
        return from_grades({b: algebra.mul_basis(tok, b) for b in window})

    def left_images(tok):
        return from_grades({b: algebra.mul_basis(b, tok) for b in window})

    left_kernel = spans.kernel_of_map(window, right_images)
    right_kernel = spans.kernel_of_map(window, left_images)
    witnesses = [{"side": "left", "annihilator": v} for v in left_kernel]
    witnesses += [{"side": "right", "annihilator": v} for v in right_kernel]
    return CheckResult.law("nondegenerate", witnesses, window=len(window))


def check_s_unital_left(algebra: Algebra, window=None, elems=None) -> CheckResult:
    """For each x: is x in span(window)*x?  Exact solvability check."""
    window = algebra.basis_window(window)
    if elems is None:
        elems = [FinVec.basis(t) for t in window]
    witnesses = []
    for x in elems:
        if not x:
            continue
        if not spans.Span(algebra.mul(FinVec.basis(b), x) for b in window).contains(x):
            witnesses.append({"element": x})
    return CheckResult.law(
        "s_unital_left", witnesses, window=len(window), elems=len(elems))


class Multiplier(NamedTuple):
    """An element of M(A) as its two tables on one validity window: `left`
    maps each window token b to U(b) ('multiply from the left'), `right`
    to V(b) ('from the right')."""

    algebra: Algebra
    left: dict
    right: dict

    @property
    def window(self):
        return self.left.keys()

    @staticmethod
    def from_rules(algebra: Algebra, left_rule, right_rule, window) -> "Multiplier":
        return Multiplier(
            algebra, {b: left_rule(b) for b in window}, {b: right_rule(b) for b in window})

    @staticmethod
    def scalar(algebra: Algebra, coeff) -> "Multiplier":
        table = {b: FinVec.basis(b, coeff) for b in algebra.basis_window()}
        return Multiplier(algebra, table, table)

    def apply_left(self, vec: FinVec) -> FinVec:
        return _apply_table(self.left, vec)

    def apply_right(self, vec: FinVec) -> FinVec:
        return _apply_table(self.right, vec)


def _apply_table(table: dict, vec: FinVec) -> FinVec:
    """The linear extension of a multiplier table; a token outside its
    window raises WindowError, there is no silent extension by zero."""
    outside = [tok for tok, _ in vec.items() if tok not in table]
    if outside:
        tok = min(outside, key=token_key)
        raise WindowError(f"token {format_token(tok)} outside window")
    return linear(table.__getitem__)(vec)


def multiplier_check(m: Multiplier, window=None) -> CheckResult:
    """Compatibility laws V(a)b = aU(b), U(ab) = U(a)b, V(ab) = aV(b) on
    basis pairs of the window, read off the tables; the first five
    failures in checking order are the witnesses."""
    algebra = m.algebra
    window = tuple(window) if window is not None else tuple(
        sorted(m.window, key=token_key)
    )
    outside = [t for t in window if t not in m.left]
    if outside:
        raise WindowError(f"tokens outside multiplier window: {outside[:3]}")
    witnesses = []
    for a in window:
        av = FinVec.basis(a)
        ua, va = m.left[a], m.right[a]
        for b in window:
            bv = FinVec.basis(b)
            if algebra.mul(va, bv) != algebra.mul(av, m.left[b]):
                witnesses.append({"law": "V(a)b = aU(b)", "pair": (a, b)})
            ab = algebra.mul(av, bv)
            try:
                uab = m.apply_left(ab)
                vab = m.apply_right(ab)
            except WindowError:
                continue
            if uab != algebra.mul(ua, bv):
                witnesses.append({"law": "U(ab)=U(a)b", "pair": (a, b)})
            if vab != algebra.mul(av, m.right[b]):
                witnesses.append({"law": "V(ab)=aV(b)", "pair": (a, b)})
            if len(witnesses) >= 5:
                return CheckResult.law("multiplier_compat", witnesses[:5])
    return CheckResult.law("multiplier_compat", witnesses[:5], window=len(window))


def is_central_multiplier(m: Multiplier) -> bool:
    """Central in M(A): the left and right tables agree (given compat
    laws)."""
    return m.left == m.right


def is_idempotent_multiplier(m: Multiplier) -> bool:
    """m m = m in M(A): applying m to each entry of a table gives the
    entry back, on both sides."""
    return all(
        side(table[b]) == table[b]
        for b in m.window
        for table, side in ((m.left, m.apply_left), (m.right, m.apply_right))
    )


class Corner:
    """Corner algebra f*A*f (= f*A for central idempotent f) of a finite
    ambient algebra, with exact embed/project between coordinates.

    Corner basis tokens are the ambient basis tokens whose f-image was kept
    by the deterministic greedy independence scan.  Each structure constant
    `algebra.mul_basis(i, j)` is the projection of the ambient product of
    the two embedded tokens, computed once per ordered pair.
    """

    def __init__(self, ambient: Algebra, idem: FinVec, name=None):
        if ambient.basis is None:
            raise CapabilityError("corner construction needs a finite ambient")
        if ambient.mul(idem, idem) != idem:
            raise StructuralError("corner projector is not idempotent")
        for b in ambient.basis:
            bv = FinVec.basis(b)
            if ambient.mul(idem, bv) != ambient.mul(bv, idem):
                raise StructuralError("corner projector is not central")
        self.ambient = ambient
        self.idem = idem
        # one Span over the f-images of the whole ambient basis: the scan
        # that picks the corner basis also factors it for `project`
        self._span = spans.Span()
        self._embed = {}
        for tok in ambient.basis:
            vec = ambient.mul(idem, FinVec.basis(tok))
            if self._span.add(vec):
                self._embed[tok] = vec
        self.reps = tuple(self._embed)

        corner = self

        def mul_basis(i, j):
            prod = ambient.mul(corner._embed[i], corner._embed[j])
            return corner.project(prod)

        self.algebra = Algebra(
            name=name or f"corner({ambient.name})",
            mul_basis=once_per_pair(mul_basis),
            basis=self.reps,
            one=self.project(idem),
        )

    def embed(self, vec: FinVec) -> FinVec:
        """Corner coordinates -> ambient element."""
        return lincomb((self._embed[tok], coeff) for tok, coeff in vec.items())

    def project(self, vec: FinVec) -> FinVec:
        """Ambient element -> corner coordinates of f*vec."""
        target = self.ambient.mul(self.idem, vec)
        coeffs = self._span.coords(target, self.ambient.basis)
        if coeffs is None:
            raise StructuralError("projected element escaped the corner span")
        return coeffs


def subgroup_average_idempotent(group_alg: Algebra, subgroup) -> FinVec:
    """(1/|N|) * sum of subgroup elements in the group algebra."""
    n = len(subgroup)
    return FinVec((h, Fraction(1, n)) for h in subgroup)
