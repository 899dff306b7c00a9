"""Span and kernel computations on finitely supported vectors.

`Span` factors a list of vectors once, as a sparse reduced echelon form
kept on the vectors' own tokens, and then answers membership, coordinates,
rank and kernel by reduction against its rows.  Every such question goes
through it.  Coordinates and kernel relations answer as vectors over a
domain that the caller names, one token per added vector.  The one dense
helper is `span_basis`: it lays the vectors out as a matrix in `token_key`
order and returns the canonical reduced echelon rows from one
`linalg.rref` call.  It stays where those rows are seen, as
corner and subcomodule bases in reports or as the basis a map is read on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import linalg
from .vectors import FinVec, as_scalar, axpy, token_key


def collect_tokens(vecs: Iterable[FinVec]):
    """Union of the supports, in `token_key` order (the matrix layout)."""
    toks = set()
    for v in vecs:
        toks.update(tok for tok, _ in v.items())
    return sorted(toks, key=token_key)


def span_basis(vecs: Sequence[FinVec]):
    """Canonical basis (reduced echelon rows) of the span."""
    vecs = [v for v in vecs if v]
    if not vecs:
        return []
    tokens = collect_tokens(vecs)
    red, pivots = linalg.rref([[v[t] for t in tokens] for v in vecs])
    return [
        FinVec(zip(tokens, red[i])) for i in range(len(pivots))
    ]


def subspace_le(sub: Sequence[FinVec], sup: Sequence[FinVec]):
    """None when span(sub) <= span(sup); otherwise a witness vector outside."""
    span = Span(sup)
    for v in sub:
        if v and not span.contains(v):
            return v
    return None


def subspace_equal(a: Sequence[FinVec], b: Sequence[FinVec]) -> bool:
    span = Span(a)
    return span.rank == Span(b).rank and all(span.contains(v) for v in b)


def kernel_of_map(domain_tokens, image: Callable[[object], FinVec]):
    """Basis of the kernel of the linear map token -> image(token), one
    relation per dependent image in `token_key` order of the domain."""
    domain = sorted(domain_tokens, key=token_key)
    return Span(image(t) for t in domain).kernel(domain)


class Span:
    """Sparse reduced echelon form of the span of the vectors added so far.

    Vectors are numbered in the order of `add`.  Each echelon row has
    coefficient 1 at its pivot token and 0 at every other pivot, and keeps
    the combination of added vectors it equals.  An added vector is
    independent exactly when it is not in the span of the earlier ones, so
    the rows are spanned by the greedy-first independent vectors; every
    dependent vector is recorded as one kernel relation.

    An occurrence index maps each token to the pivots of the rows that are
    nonzero there, so a new row is back-substituted only into the rows
    that hold its pivot, not into every row.
    """

    __slots__ = ("_rows", "_occ", "_deps", "_count")

    def __init__(self, vecs: Iterable[FinVec] = ()):
        self._rows = {}  # pivot token -> (row, combination)
        self._occ = {}  # token -> pivots of the rows nonzero at it
        self._deps = []
        self._count = 0
        for vec in vecs:
            self.add(vec)

    def _reduce(self, vec: FinVec):
        """Residual of vec against the rows, and the (multiplier, row) pairs
        subtracted.  Rows are zero at each other's pivots, so each
        multiplier is vec's own coefficient at that pivot."""
        used = [(c, self._rows[t]) for t, c in vec.items() if t in self._rows]
        res = dict(vec.items())
        for c, (row, _) in used:
            axpy(res, -c, row)
        return res, used

    def add(self, vec: FinVec) -> bool:
        """Append vec; True when it is independent of the earlier vectors."""
        res, used = self._reduce(vec)
        combo = {self._count: 1}
        self._count += 1
        for c, (_, row_combo) in used:
            axpy(combo, -c, row_combo)
        if not res:
            self._deps.append(combo)
            return False
        pivot = next(iter(res))
        inv = as_scalar(Fraction(1) / res[pivot])
        row = {t: c * inv for t, c in res.items()}
        combo = {i: c * inv for i, c in combo.items()}
        occ = self._occ
        # `row` is zero at every earlier pivot, so only the rows nonzero at
        # the new pivot change.  This is `axpy` with the index kept up to
        # date, which is why it is a loop of its own: it has to see each
        # entry of `other` appear and cancel.  The entry at `pivot` cancels
        # in every such row, which empties occ[pivot] before the new row's
        # own entry goes in below.
        for p in tuple(occ.get(pivot, ())):
            other, other_combo = self._rows[p]
            c = other[pivot]
            for t, val in row.items():
                old = other.get(t)
                if old is None:
                    other[t] = -c * val
                    occ.setdefault(t, set()).add(p)
                else:
                    new = old - c * val
                    if new:
                        other[t] = new
                    else:
                        del other[t]
                        occ[t].discard(p)
            axpy(other_combo, -c, combo)
        for t in row:
            occ.setdefault(t, set()).add(pivot)
        self._rows[pivot] = (row, combo)
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)

    def contains(self, vec: FinVec) -> bool:
        return not self._reduce(vec)[0]

    def coords(self, vec: FinVec, domain: Sequence):
        """The combination of the added vectors that sums to vec, as a
        vector over `domain` (domain[i] names the i-th added vector), or
        None when vec is outside the span.

        Dependent vectors get 0: the particular solution of a dense
        elimination over the same list, free columns set to 0.  Only the
        rows that reduced vec are summed."""
        res, used = self._reduce(vec)
        if res:
            return None
        out = {}
        for c, (_, combo) in used:
            axpy(out, c, combo)
        return FinVec((domain[i], c) for i, c in out.items())

    def kernel(self, domain: Sequence) -> list[FinVec]:
        """One relation per dependent vector, with domain[i] naming the
        i-th added vector; `kernel_of_map` adds them in `token_key` order
        of their domain tokens."""
        return [
            FinVec((domain[i], dep[i]) for i in sorted(dep)) for dep in self._deps
        ]
