"""The factored `spans.Span` against dense references.

Every query of a Span must give exactly what a fresh `linalg.rref`
elimination gives for the same list: the same particular solution, rank
and kernel basis, and the same greedy choice of independent vectors.  The
references below lay the vectors out as dense matrices in `token_key`
order and use no Span.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mhopf import linalg, spans
from mhopf.vectors import FinVec, lincomb, token_key

F = Fraction

tokens = st.sampled_from([0, 1, 2, 3, "a", (0, 1)])
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
vectors = st.dictionaries(tokens, coeffs, max_size=4).map(FinVec)
mixed = st.one_of(st.integers(-3, 3), coeffs)
mixed_vectors = st.dictionaries(tokens, mixed, max_size=4).map(FinVec)


def vec_sum(vecs):
    return lincomb((v, 1) for v in vecs)


def combination(draw, vecs, max_terms):
    picks = draw(
        st.lists(st.tuples(st.integers(0, len(vecs) - 1), coeffs), min_size=1, max_size=max_terms)
    )
    return vec_sum(vecs[i].scale(c) for i, c in picks)


@st.composite
def vec_lists(draw):
    """Random vectors (zero ones included) with random combinations of
    earlier ones inserted, so that most lists have dependent members."""
    vecs = draw(st.lists(vectors, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        vecs.insert(draw(st.integers(0, len(vecs))), combination(draw, vecs, 3))
    return vecs


@st.composite
def lists_and_targets(draw):
    vecs = draw(vec_lists())
    target = combination(draw, vecs, 4) if draw(st.booleans()) else draw(vectors)
    return vecs, target


def layout(vecs):
    """Dense columns: one row per token of the union of supports."""
    tokens = sorted({t for v in vecs for t in v.support()}, key=token_key)
    return [[v[t] for v in vecs] for t in tokens]


def in_span(target, vecs):
    """One augmented elimination: coefficients over the positions in the
    list with free columns 0, or None."""
    n = len(vecs)
    rows = layout(list(vecs) + [target])
    if not rows:
        return FinVec()
    red, pivots = linalg.rref(rows)
    if n in pivots:
        return None
    return FinVec((c, red[r][n]) for r, c in enumerate(pivots))


def span_dim(vecs):
    return len(linalg.rref(layout(vecs))[1])


def kernel_of_map(domain_tokens, image):
    """One relation per free column, over a `token_key`-sorted domain."""
    domain = sorted(domain_tokens, key=token_key)
    n = len(domain)
    rows = layout([image(t) for t in domain]) or [[F(0)] * n]
    red, pivots = linalg.rref(rows) if n else ([], [])
    relations = []
    for free in (c for c in range(n) if c not in pivots):
        rel = {domain[free]: F(1)}
        for r, c in enumerate(pivots):
            rel[domain[c]] = -red[r][free]
        relations.append(FinVec(rel))
    return relations


def greedy_reference(items):
    """The greedy independence scan by one dense solve per item."""
    kept, basis = [], []
    for key, vec in items:
        if vec and in_span(vec, basis) is None:
            kept.append((key, vec))
            basis.append(vec)
    return kept


SETTINGS = settings(deadline=None, derandomize=True, max_examples=100)


@SETTINGS
@given(lists_and_targets())
def test_coords_equal_in_span(case):
    vecs, target = case
    assert spans.Span(vecs).coords(target, range(len(vecs))) == in_span(target, vecs)


@SETTINGS
@given(lists_and_targets())
def test_contains_iff_coords(case):
    vecs, target = case
    span = spans.Span(vecs)
    assert span.contains(target) == (span.coords(target, range(len(vecs))) is not None)


@SETTINGS
@given(vec_lists())
def test_rank_equals_span_dim(vecs):
    assert spans.Span(vecs).rank == span_dim(vecs)


@SETTINGS
@given(vec_lists(), st.randoms(use_true_random=False))
def test_kernel_equals_kernel_of_map(vecs, rnd):
    labels = [("v", i) if i % 2 else i for i in range(len(vecs))]
    rnd.shuffle(labels)
    image = dict(zip(labels, vecs))
    domain = sorted(labels, key=token_key)
    span = spans.Span(image[t] for t in domain)
    reference = kernel_of_map(labels, image.__getitem__)
    assert span.kernel(domain) == reference
    assert spans.kernel_of_map(labels, image.__getitem__) == reference


@SETTINGS
@given(vec_lists(), vec_lists())
def test_subspace_equal_iff_same_canonical_basis(a, b):
    assert spans.subspace_equal(a, b) == (spans.span_basis(a) == spans.span_basis(b))
    assert spans.subspace_equal(a, a + [vec_sum(a)])


@SETTINGS
@given(vec_lists())
def test_greedy_add_keeps_the_greedy_independent_items(vecs):
    items = list(enumerate(vecs))
    span = spans.Span()
    kept = [(key, vec) for key, vec in items if span.add(vec)]
    assert kept == greedy_reference(items)


@SETTINGS
@given(vec_lists())
def test_occurrence_index_names_exactly_the_rows_nonzero_at_each_token(vecs):
    """After every add, the index maps each token to the pivots of the
    rows that hold it, the new pivot's own row included, and each row is
    1 at its pivot and 0 at every other pivot."""
    span = spans.Span()
    for vec in vecs:
        span.add(vec)
        rows = {p: row for p, (row, _) in span._rows.items()}
        held = {}
        for p, row in rows.items():
            assert row[p] == 1
            assert all(q == p or q not in row for q in rows)
            for t in row:
                held.setdefault(t, set()).add(p)
        assert {t: ps for t, ps in span._occ.items() if ps} == held


def test_empty_span():
    span = spans.Span()
    assert span.rank == 0
    assert span.coords(FinVec(), []) == FinVec()
    assert span.coords(FinVec.basis(0), []) is None
    assert span.kernel([]) == []


def test_coords_and_kernel_by_hand():
    u, v = FinVec({0: 1, 1: 1}), FinVec({0: 1, 1: -1})
    w = FinVec({0: 3, 1: 1})  # = 2u + v
    span = spans.Span([u, FinVec(), v, w])
    assert span.rank == 2
    names = ["p", "z", "v", "w"]
    assert span.coords(FinVec.basis(0), names) == FinVec({"p": F(1, 2), "v": F(1, 2)})
    assert span.coords(u, names) == FinVec.basis("p")
    assert span.coords(FinVec.basis(2), names) is None
    assert span.kernel(names) == [
        FinVec.basis("z"),
        FinVec({"p": -2, "v": -1, "w": 1}),
    ]


def test_subspace_le_names_the_first_vector_outside():
    sup = [FinVec({0: 1, 1: 1}), FinVec.basis(2)]
    assert spans.subspace_le([FinVec({0: 2, 1: 2, 2: 5})], sup) is None
    outside = FinVec.basis(1)
    assert spans.subspace_le([FinVec(), FinVec.basis(2), outside], sup) == outside


# Mixed scalars: integral coefficients are ints, the others Fractions.  A
# Span over such vectors answers exactly as over the same vectors holding
# only Fractions, and stores and hands out no float and no zero.


def as_fractions(v: FinVec) -> FinVec:
    return FinVec._of({t: F(c) for t, c in v.items()})


def exact_nonzero(values):
    return all(type(c) in (int, F) and c != 0 for c in values)


@st.composite
def mixed_lists_and_targets(draw):
    vecs = draw(st.lists(mixed_vectors, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        picks = draw(st.lists(st.tuples(st.integers(0, len(vecs) - 1), mixed), min_size=1, max_size=3))
        vecs.insert(draw(st.integers(0, len(vecs))), vec_sum(vecs[i].scale(c) for i, c in picks))
    return vecs, draw(mixed_vectors)


@SETTINGS
@given(mixed_lists_and_targets())
def test_mixed_scalars_answer_as_all_fractions(case):
    vecs, target = case
    span, ref = spans.Span(vecs), spans.Span(as_fractions(v) for v in vecs)
    domain = list(range(len(vecs)))
    for t in (target, vec_sum(vecs)):
        coords = span.coords(t, domain)
        assert coords == ref.coords(as_fractions(t), domain)
        assert coords is None or exact_nonzero(c for _, c in coords.items())
        assert span.contains(t) == ref.contains(as_fractions(t))
    kernel = span.kernel(domain)
    assert kernel == ref.kernel(domain)
    basis = spans.span_basis(vecs)
    assert basis == spans.span_basis([as_fractions(v) for v in vecs])
    for v in kernel + basis:
        assert exact_nonzero(c for _, c in v.items())
    for row, combo in span._rows.values():
        assert exact_nonzero(row.values()) and exact_nonzero(combo.values())


def test_coords_over_integral_vectors():
    """Coordinates name the added vectors by the caller's domain, and an
    added vector that the reduction does not use gets no entry."""
    span = spans.Span([FinVec({0: 2, 1: 2}), FinVec.basis(1, 3), FinVec.basis(2)])
    coords = span.coords(FinVec({0: 1, 1: 4}), "xyz")
    assert coords == FinVec({"x": F(1, 2), "y": 1})
    assert exact_nonzero(c for _, c in coords.items())
