"""The exact RREF kernel behind `spans.span_basis`.

One row-reduction kernel, `_rref_pairs`, works on numerator/denominator
pair matrices of Python ints (arbitrary precision), every entry kept
reduced with a positive denominator; `rref` converts rows of exact
rationals to that form and back, an entry with denominator 1 as an int.
Membership, rank, coordinates and kernels are answered by `spans.Span`,
not here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _reduce(n, d):
    if n == 0:
        return 0, 1
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    if g > 1:
        n //= g
        d //= g
    return n, d


def _rref_pairs(num, den):
    """Reduce (num[i][j]/den[i][j]) to reduced row echelon form, in place.

    Returns (num, den, pivot_columns).
    """
    m = len(num)
    n = len(num[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = -1
        for i in range(r, m):
            if num[i][c] != 0:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            num[r], num[pr] = num[pr], num[r]
            den[r], den[pr] = den[pr], den[r]
        pn = num[r][c]
        pd = den[r][c]
        row_n = num[r]
        row_d = den[r]
        for j in range(c, n):
            nj, dj = _reduce(row_n[j] * pd, row_d[j] * pn)
            row_n[j] = nj
            row_d[j] = dj
        for i in range(m):
            if i == r or num[i][c] == 0:
                continue
            fn = num[i][c]
            fd = den[i][c]
            tn = num[i]
            td = den[i]
            for j in range(c, n):
                if row_n[j] == 0:
                    continue
                # t[j] -= f * row[j]
                an = tn[j] * fd * row_d[j] - fn * row_n[j] * td[j]
                ad = td[j] * fd * row_d[j]
                nj, dj = _reduce(an, ad)
                tn[j] = nj
                td[j] = dj
        pivots.append(c)
        r += 1
        if r == m:
            break
    return num, den, pivots


def _to_pairs(rows):
    num = [[f.numerator for f in row] for row in rows]
    den = [[f.denominator for f in row] for row in rows]
    return num, den

def _from_pairs(num, den):
    return [
        [n if d == 1 else Fraction(n, d) for n, d in zip(nrow, drow)]
        for nrow, drow in zip(num, den)
    ]


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    if not rows:
        return [], []
    num, den = _to_pairs(rows)
    num, den, pivots = _rref_pairs(num, den)
    return _from_pairs(num, den), pivots
