"""Finitely supported vectors over exact rationals.

A vector is a map from basis tokens to nonzero exact rationals: an `int`
when integral, a `Fraction` otherwise (`as_scalar`).  Sums and products
of ints stay ints, which keeps the common integral arithmetic off
`Fraction`.  A sum or product of Fractions may still be an integral
`Fraction`; that is harmless, since the two agree on `==`, `hash` and
`str`.  `int / int` is a float, so the package divides only as
`Fraction(1) / x`.

Tokens are hashable values (ints, strings, nested tuples).  Arithmetic
iterates the coefficient dict in its own order, since no sum depends on
it.  `token_key` gives a total order across mixed token kinds, and that
canonical order is kept wherever an order can be observed: `repr`,
`support()` (and `spans` token collection, hence matrix layout), witness
lists and report rendering.

Every structure map in the package is a linear or bilinear rule on basis
tokens; `linear` and `bilinear` extend such a rule to vectors, and
`bilinear_sum` sums the bilinear extension over many pairs of vectors.
A tensor token is a flat tuple of legs; `on_legs` applies a rule to a run
of legs and keeps the others, so a covered law is a composition of leg
maps: coassociativity reads (T2 (x) i)(i (x) T1) = (i (x) T1)(T2 (x) i).
`graded_mul` is the one group-graded product (g, l)(h, m) = (gh, lm) of
the convolution algebras, on vectors over graded tokens (g, l).  `axpy`,
acc += c * src on plain coefficient dicts, is the one in-place
accumulator that `lincomb`, `linear`, `bilinear`, `bilinear_sum` and
`on_legs` (and the echelon rows of `spans.Span`) share.  `once_per_pair`
is the one way to cache a rule on pairs of tokens.  Its hits hand out the
same `FinVec` object again, which is safe because no code outside this
module touches a vector's coefficient dict `_c`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator

Token = object
Scalar = int | Fraction


def as_scalar(value) -> Scalar:
    """Coerce ints, strings like '2/3' and Fractions to an exact rational:
    an int when integral (bools included), a Fraction otherwise."""
    if type(value) is int:
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        value = Fraction(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"not an exact scalar: {value!r}")


def token_key(tok):
    """Total order key over mixed token kinds, recursing through tuples."""
    if isinstance(tok, bool):
        return (0, int(tok))
    if isinstance(tok, int):
        return (0, tok)
    if isinstance(tok, str):
        return (1, tok)
    if isinstance(tok, Fraction):
        return (2, tok)
    if isinstance(tok, tuple):
        return (3, len(tok), tuple(token_key(t) for t in tok))
    return (4, repr(tok))


def format_token(tok) -> str:
    if isinstance(tok, tuple):
        return "(" + ",".join(format_token(t) for t in tok) + ")"
    return str(tok)


class FinVec:
    """Immutable finitely supported vector with exact rational coefficients."""

    __slots__ = ("_c",)

    def __init__(self, items: dict | Iterable = ()):
        coeffs = {}
        pairs = items.items() if isinstance(items, dict) else items
        for tok, val in pairs:
            val = as_scalar(val)
            if val:
                acc = coeffs.get(tok)
                if acc is None:
                    coeffs[tok] = val
                else:
                    acc = acc + val
                    if acc:
                        coeffs[tok] = acc
                    else:
                        del coeffs[tok]
        self._c = coeffs

    @staticmethod
    def basis(tok, coeff=1) -> "FinVec":
        coeff = as_scalar(coeff)
        return FinVec._of({tok: coeff} if coeff else {})

    @staticmethod
    def _of(coeffs: dict) -> "FinVec":
        """Wrap a coefficient dict that holds no zero, without copying."""
        res = FinVec.__new__(FinVec)
        res._c = coeffs
        return res

    def items(self):
        """Support/coefficient pairs in the coefficient dict's own order."""
        return self._c.items()

    def support(self):
        """Support tokens in canonical `token_key` order."""
        return tuple(sorted(self._c, key=token_key))

    def __getitem__(self, tok) -> Scalar:
        return self._c.get(tok, 0)

    def __contains__(self, tok) -> bool:
        return tok in self._c

    def __iter__(self) -> Iterator:
        return iter(self.support())

    def __len__(self) -> int:
        return len(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __add__(self, other: "FinVec") -> "FinVec":
        out = dict(self._c)
        for tok, val in other._c.items():
            acc = out.get(tok, 0) + val
            if acc:
                out[tok] = acc
            else:
                out.pop(tok, None)
        return FinVec._of(out)

    def __neg__(self) -> "FinVec":
        return FinVec._of({tok: -val for tok, val in self._c.items()})

    def __sub__(self, other: "FinVec") -> "FinVec":
        return self + (-other)

    def scale(self, coeff) -> "FinVec":
        coeff = as_scalar(coeff)
        if not coeff:
            return FinVec()
        return FinVec._of({tok: coeff * val for tok, val in self._c.items()})

    def __rmul__(self, coeff) -> "FinVec":
        return self.scale(coeff)

    def __eq__(self, other) -> bool:
        return isinstance(other, FinVec) and self._c == other._c

    __hash__ = None

    def map_tokens(self, fn: Callable) -> "FinVec":
        return FinVec((fn(tok), val) for tok, val in self._c.items())

    def __repr__(self) -> str:
        if not self._c:
            return "0"
        return " + ".join(
            f"{self._c[tok]}*{format_token(tok)}" for tok in self.support()
        )


def axpy(acc: dict, coeff, src: dict) -> None:
    """acc += coeff * src in place, on plain token -> coefficient dicts.

    An entry that cancels is deleted at once and a new token goes to the
    end of `acc`, so `acc` never stores a zero and its order is the order
    in which its tokens last appeared.  A zero `coeff` adds nothing."""
    if not coeff:
        return
    for tok, val in src.items():
        old = acc.get(tok)
        if old is None:
            acc[tok] = coeff * val
        else:
            new = old + coeff * val
            if new:
                acc[tok] = new
            else:
                del acc[tok]


def lincomb(pairs: Iterable[tuple[FinVec, object]]) -> FinVec:
    """Sum of coeff * vec over (vec, coeff) pairs, accumulated in one dict.

    The result equals the fold `v1.scale(c1) + v2.scale(c2) + ...`.
    """
    acc = {}
    for vec, coeff in pairs:
        axpy(acc, coeff, vec._c)
    return FinVec._of(acc)


def linear(rule: Callable[[object], FinVec]) -> Callable[[FinVec], FinVec]:
    """Linear extension of a rule on basis tokens."""
    def apply(x: FinVec) -> FinVec:
        acc = {}
        for t, c in x._c.items():
            axpy(acc, c, rule(t)._c)
        return FinVec._of(acc)

    return apply


def bilinear_sum(
    rule: Callable[[object, object], FinVec],
    pairs: Iterable[tuple[FinVec, FinVec]],
) -> FinVec:
    """Sum over (x, y) pairs of the bilinear extension of `rule` at (x, y),
    accumulated in one dict: no vector is built per pair or per term."""
    acc = {}
    for x, y in pairs:
        yc = y._c
        for i, ci in x._c.items():
            for j, cj in yc.items():
                axpy(acc, ci * cj, rule(i, j)._c)
    return FinVec._of(acc)


def bilinear(rule: Callable[[object, object], FinVec]) -> Callable[[FinVec, FinVec], FinVec]:
    """Bilinear extension of a rule on pairs of basis tokens."""
    return lambda x, y: bilinear_sum(rule, ((x, y),))


def graded_mul(
    group_mul: Callable[[object, object], object],
    mul_basis: Callable[[object, object], FinVec],
    x: FinVec,
    y: FinVec,
) -> FinVec:
    """Product of vectors over graded tokens (g, l) under the rule
    (g, l)(h, m) = (gh, lm), with lm expanded by `mul_basis`.

    Each factor is split by its first slots.  The target products of each
    pair of first slots (g, h) are accumulated, by `bilinear_sum`'s loop
    on the split coefficient dicts, into one dict per group product
    c = gh keyed by target token t alone, so that no vector is built per
    pair and each token (c, t) of the result is built once."""
    accs = {}
    y_grades = _grades(y._c).items()
    for g, xc in _grades(x._c).items():
        for h, yc in y_grades:
            c = group_mul(g, h)
            acc = accs.get(c)
            if acc is None:
                acc = accs[c] = {}
            for l, cl in xc.items():
                for m, cm in yc.items():
                    axpy(acc, cl * cm, mul_basis(l, m)._c)
    out = {}
    for c, acc in accs.items():
        for t, v in acc.items():
            out[c, t] = v
    return FinVec._of(out)


def grades(x: FinVec) -> dict:
    """The nonzero vectors x_g with x = sum of x_g[l] (g, l), one per
    first slot g of a graded token (g, l)."""
    return {g: FinVec._of(part) for g, part in _grades(x._c).items()}


def _grades(coeffs: dict) -> dict:
    parts = {}
    for (g, l), c in coeffs.items():
        part = parts.get(g)
        if part is None:
            parts[g] = {l: c}
        else:
            part[l] = c
    return parts


def from_grades(parts: dict) -> FinVec:
    """The sum of x_g[l] (g, l) over the items (g, x_g) of `parts`: the
    inverse of `grades`."""
    out = {}
    for g, xg in parts.items():
        for l, c in xg._c.items():
            out[g, l] = c
    return FinVec._of(out)


def once_per_pair(rule: Callable[[object, object], object]):
    """`rule` computed once per ordered pair of tokens.

    The results fill one dict per first token on demand, with no eviction:
    over n tokens it holds at most n * n results.  The pair is ordered
    because the product need not commute.  A call that raises stores
    nothing."""
    rows = {}

    def cached(i, j):
        try:
            return rows[i][j]
        except KeyError:
            pass
        # called outside the handler, so an error of `rule` is not chained
        # to the KeyError
        out = rows.setdefault(i, {})[j] = rule(i, j)
        return out

    return cached


def tensor(*factors: FinVec) -> FinVec:
    """Tensor product of vectors, one leg each: its tokens are the tuples
    of their tokens, so `tensor(x)` is x as a tensor of one leg.

    Distinct tuples of tokens give distinct tokens, so there is nothing
    to accumulate and no product of nonzero coefficients is zero.
    """
    acc = {(): 1}
    for f in factors:
        acc = {tok + (t,): c * v for tok, c in acc.items() for t, v in f._c.items()}
    return FinVec._of(acc)


def on_legs(rule: Callable[..., FinVec], x: FinVec, start: int, stop: int) -> FinVec:
    """The leg map that applies `rule` to legs start:stop of a tensor.

    `rule(*tok[start:stop])` returns a vector over tuples of legs, each
    spliced in as `tok[:start] + out + tok[stop:]`.  The run is always
    given: a leg may itself be a tuple (a permutation, say), so leg
    boundaries are never read off a token's shape."""
    acc = {}
    for tok, c in x._c.items():
        head, tail = tok[:start], tok[stop:]
        out = rule(*tok[start:stop])._c
        axpy(acc, c, {head + t + tail: v for t, v in out.items()})
    return FinVec._of(acc)
