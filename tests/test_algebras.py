import itertools
from fractions import Fraction

import pytest

from mhopf.algebras import (
    Corner,
    Multiplier,
    check_associative,
    check_nondegenerate,
    check_s_unital_left,
    convolution_algebra,
    group_algebra_plain,
    is_central_multiplier,
    is_idempotent_multiplier,
    local_unit,
    multiplier_check,
    pointwise_algebra,
    struct_const_algebra,
    subgroup_average_idempotent,
    tensor_square_algebra,
)
from mhopf.errors import NoLocalUnitError, StructuralError, WindowError
from mhopf.groups import alternating_elements, cyclic_group, subgroup_elements
from mhopf.vectors import FinVec

F = Fraction


def test_pointwise_product_is_diagonal(S3):
    A = pointwise_algebra(S3)
    a, b = S3.elements[1], S3.elements[2]
    assert A.mul(FinVec.basis(a), FinVec.basis(a)) == FinVec.basis(a)
    assert A.mul(FinVec.basis(a), FinVec.basis(b)) == FinVec()
    assert A.pointwise
    assert A.one == FinVec((g, F(1)) for g in S3.elements)


def closed_form_mul(group):
    """The group law written out, without `GroupSpec.mul`."""
    if group.name.startswith("cyclic:"):
        n = len(group.elements)
        return lambda a, b: (a + b) % n
    return lambda p, q: tuple(p[q[i]] for i in range(len(p)))


@pytest.mark.parametrize("spec", ["S3", "C4"])
def test_cached_structure_constants_match_the_closed_form(request, spec):
    group = request.getfixturevalue(spec)
    mul = closed_form_mul(group)
    kG = group_algebra_plain(group)
    conv = convolution_algebra(group, group_algebra_plain(group))
    # twice: the second sweep reads what the first one stored
    for _ in range(2):
        for g, h in itertools.product(group.elements, repeat=2):
            assert kG.mul_basis(g, h) == FinVec.basis(mul(g, h))
        for p, q in itertools.product(conv.basis, repeat=2):
            (g, l), (h, m) = p, q
            assert conv.mul_basis(p, q) == FinVec.basis((mul(g, h), mul(l, m)))


def test_group_algebra_multiplies_by_convolution(S3):
    A = group_algebra_plain(S3)
    for p, q in itertools.product(S3.elements, repeat=2):
        assert A.mul(FinVec.basis(p), FinVec.basis(q)) == FinVec.basis(S3.mul(p, q))
    assert A.one == FinVec.basis(S3.identity)


def test_struct_const_algebra_and_associativity_checker():
    # k[x]/(x^3) on tokens 0,1,2
    table = {
        (i, j): (FinVec.basis(i + j) if i + j < 3 else FinVec())
        for i in range(3)
        for j in range(3)
    }
    A = struct_const_algebra("truncated-poly", (0, 1, 2), table, one=FinVec.basis(0))
    assert check_associative(A).ok()
    bad = struct_const_algebra(
        "broken", (0, 1), {(0, 0): FinVec.basis(1), (1, 0): FinVec.basis(0)}
    )
    assert not check_associative(bad).ok()


def test_tensor_square_products_are_componentwise(C4):
    A = group_algebra_plain(C4)
    T = tensor_square_algebra(A, A)
    got = T.mul(FinVec.basis((1, 2)), FinVec.basis((3, 3)))
    assert got == FinVec.basis((0, 1))


def test_convolution_algebra_of_functions(C4):
    A = convolution_algebra(C4, group_algebra_plain(cyclic_group(2)))
    got = A.mul(FinVec.basis((1, 0)), FinVec.basis((2, 1)))
    assert got == FinVec.basis((3, 1))
    assert check_associative(A).ok()


def test_local_units(S3):
    A = pointwise_algebra(S3)
    x = FinVec.basis(S3.elements[0]) + FinVec.basis(S3.elements[3], F(2))
    u = local_unit(A, [x])
    assert A.mul(u, x) == x and A.mul(x, u) == x
    zero_prod = struct_const_algebra("zp", ("z",), {})
    with pytest.raises(NoLocalUnitError):
        local_unit(zero_prod, [FinVec.basis("z")])


def test_local_unit_solves_over_the_window_when_no_unit_is_given():
    # k[x]/(x^3) with its unit withheld: e*x == x == x*e forces e = 1 + c x^2
    # with c free, since x^2 * x = 0; the free coordinate is set to 0
    table = {
        (i, j): (FinVec.basis(i + j) if i + j < 3 else FinVec())
        for i in range(3)
        for j in range(3)
    }
    A = struct_const_algebra("truncated-poly", (0, 1, 2), table)
    assert local_unit(A, [FinVec.basis(1)]) == FinVec.basis(0)
    x_and_square = FinVec({1: 1, 2: F(-3, 2)})
    assert local_unit(A, [x_and_square, FinVec.basis(2)]) == FinVec.basis(0)


def test_nondegenerate_and_s_unital(S3):
    assert check_nondegenerate(pointwise_algebra(S3)).ok()
    assert check_s_unital_left(group_algebra_plain(S3)).ok()
    zero_prod = struct_const_algebra("zp", ("z",), {})
    assert not check_nondegenerate(zero_prod).ok()
    assert not check_s_unital_left(zero_prod).ok()


def element_multiplier(A, z):
    """Multiplication by the element z of A, on the whole basis."""
    return Multiplier.from_rules(
        A, lambda b: A.mul(z, FinVec.basis(b)), lambda b: A.mul(FinVec.basis(b), z), A.basis)


def test_element_multiplier_satisfies_compat_laws(S3):
    A = group_algebra_plain(S3)
    z = FinVec.basis((1, 0, 2)) + FinVec.basis((1, 2, 0), F(3))
    m = element_multiplier(A, z)
    assert multiplier_check(m).ok()
    assert m.left[S3.identity] == z
    assert m.apply_left(FinVec.basis(S3.identity)) == z


def test_multiplier_applies_and_guards_window():
    A = struct_const_algebra("ab", ("a", "b"), {})
    swap = {"a": FinVec.basis("b"), "b": FinVec.basis("a", F(2))}
    m = Multiplier(A, swap, swap)
    assert m.apply_left(FinVec({"a": F(1), "b": F(1)})) == FinVec({"a": F(2), "b": F(1)})
    with pytest.raises(WindowError, match="token missing outside window"):
        m.apply_right(FinVec.basis("missing"))
    # an in-window token first does not let a later one outside through
    narrow = Multiplier.from_rules(A, FinVec.basis, FinVec.basis, ("a",))
    assert list(narrow.window) == ["a"]
    with pytest.raises(WindowError, match="token b outside window"):
        narrow.apply_left(FinVec([("a", 1), ("b", 1)]))


def test_multiplier_check_keeps_its_first_five_witnesses():
    """One pair can break all three laws; the cap still keeps exactly the
    first five failures in checking order."""
    C3 = cyclic_group(3)
    A = group_algebra_plain(C3)
    scale, shift = (3, 3, 2), (0, 2, 1)
    m = Multiplier.from_rules(
        A, lambda b: FinVec.basis(C3.mul(b, shift[b]), scale[b]),
        lambda b: FinVec.basis(b, scale[b]), A.basis)
    result = multiplier_check(m)
    assert [(w["law"], w["pair"]) for w in result.witnesses] == [
        ("V(a)b = aU(b)", (0, 1)), ("U(ab)=U(a)b", (0, 1)),
        ("V(a)b = aU(b)", (0, 2)), ("U(ab)=U(a)b", (0, 2)),
        ("V(a)b = aU(b)", (1, 1))]


def test_noncentral_element_is_still_a_multiplier(S3):
    # regression: the first compatibility law is (a.m)b == a(m.b); the
    # one-sided reading (m.a)b == a(b.m) wrongly rejects this element
    A = group_algebra_plain(S3)
    p = (FinVec.basis(S3.identity) + FinVec.basis((1, 0, 2))).scale(F(1, 2))
    m = element_multiplier(A, p)
    assert A.mul(p, p) == p
    assert multiplier_check(m).ok()
    assert is_idempotent_multiplier(m)
    assert not is_central_multiplier(m)


def test_identity_and_scalar_multipliers(C4):
    A = group_algebra_plain(C4)
    ident = Multiplier.scalar(A, 1)
    assert is_central_multiplier(ident) and is_idempotent_multiplier(ident)
    half = Multiplier.scalar(A, F(1, 2))
    assert half.apply_left(FinVec.basis(2)) == FinVec.basis(2, F(1, 2))
    assert not is_idempotent_multiplier(half)


def test_corner_embeds_and_projects_exactly(S3, corner_A3):
    kS3 = group_algebra_plain(S3)
    L = corner_A3.algebra
    assert len(L.basis) == 2
    assert check_associative(L).ok()
    # embed/project round trip on every corner basis vector
    for tok in L.basis:
        vec = corner_A3.embed(FinVec.basis(tok))
        assert kS3.mul(corner_A3.idem, vec) == vec
        assert corner_A3.project(vec) == FinVec.basis(tok)
    # the corner is unital with unit = projected idempotent
    for tok in L.basis:
        assert L.mul(L.one, FinVec.basis(tok)) == FinVec.basis(tok)


@pytest.mark.parametrize("which", ["kS3_identity", "C8_generated_2"])
def test_corner_structure_constants_are_the_projected_products(S3, which):
    # kS3 with f = delta_e is all of kS3, so the corner does not commute
    if which == "kS3_identity":
        ambient = group_algebra_plain(S3)
        corner = Corner(ambient, FinVec.basis(S3.identity))
    else:
        C8 = cyclic_group(8)
        ambient = group_algebra_plain(C8)
        corner = Corner(
            ambient, subgroup_average_idempotent(ambient, subgroup_elements(C8, "generated:[2]"))
        )
    L = corner.algebra
    for i, j in itertools.product(L.basis, repeat=2):
        fresh = corner.project(
            ambient.mul(corner.embed(FinVec.basis(i)), corner.embed(FinVec.basis(j)))
        )
        first = L.mul_basis(i, j)
        assert first == fresh, (i, j)
        assert L.mul_basis(i, j) == first, (i, j)
    assert check_associative(L).ok()


def test_corner_rejects_noncentral_or_nonidempotent(S3):
    kS3 = group_algebra_plain(S3)
    noncentral = (FinVec.basis(S3.identity) + FinVec.basis((1, 0, 2))).scale(F(1, 2))
    with pytest.raises(StructuralError):
        Corner(kS3, noncentral)
    with pytest.raises(StructuralError):
        Corner(kS3, FinVec.basis((1, 0, 2)))


def test_subgroup_average_is_idempotent(S3):
    kS3 = group_algebra_plain(S3)
    fN = subgroup_average_idempotent(kS3, alternating_elements(3))
    assert kS3.mul(fN, fN) == fN
    assert sum(fN[h] for h in alternating_elements(3)) == 1
