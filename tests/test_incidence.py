import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from incidence_gradings.cyclo import CycloNumber, root_of_unity
from incidence_gradings.errors import PosetMismatch
from incidence_gradings.incidence import IncidenceElement
from incidence_gradings.posets import chain_poset, poset_from_relation

from helpers import identity_element, incidence_dimension, matrix_unit


def test_matrix_unit_relations():
    p = chain_poset([1, 2, 3])
    e12, e23, e13 = matrix_unit(p, 1, 2), matrix_unit(p, 2, 3), matrix_unit(p, 1, 3)
    assert e12 * e23 == e13
    assert (e12 * e12).is_zero()
    assert (e23 * e12).is_zero()
    e2 = matrix_unit(p, 2, 2)
    assert e12 * e2 == e12
    assert e2 * e23 == e23


def test_support_must_be_comparable():
    p = chain_poset([1, 2])
    with pytest.raises(ValueError):
        IncidenceElement(p, {(2, 1): root_of_unity(Fraction(0))})


def test_identity_is_two_sided_unit():
    p = poset_from_relation("abcd", [("a", "b"), ("a", "c"), ("b", "d")])
    one = identity_element(p)
    rng = random.Random(37)
    f = _random_element(p, rng)
    assert one * f == f
    assert f * one == f


def _random_element(p, rng, conductor_pool=(1, 2, 3, 4)):
    coeffs = {}
    for pair in p.comparable_pairs():
        if rng.random() < 0.6:
            q = Fraction(rng.randrange(12), 12)
            scalar = Fraction(rng.randint(-3, 3))
            coeffs[pair] = root_of_unity(q) * scalar
    return IncidenceElement(p, coeffs)


def test_mul_associative_and_bilinear():
    p = poset_from_relation(
        [1, 2, 3, 4, 5],
        [(1, 2), (2, 4), (1, 3), (3, 4), (4, 5)])
    rng = random.Random(41)
    for _ in range(15):
        f = _random_element(p, rng)
        g = _random_element(p, rng)
        h = _random_element(p, rng)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h
        assert (f * g).scale(Fraction(3, 2)) == f.scale(Fraction(3, 2)) * g


def test_poset_mismatch():
    f = identity_element(chain_poset([1, 2]))
    g = identity_element(chain_poset([1, 3]))
    with pytest.raises(PosetMismatch):
        f * g


def test_chain_dimension_and_ut_tables():
    # I(chain of n) has dimension n(n+1)/2 and multiplies like matrix units
    for n in range(1, 6):
        p = chain_poset(range(n))
        assert incidence_dimension(p) == n * (n + 1) // 2
        units = {(i, j): matrix_unit(p, i, j)
                 for i in range(n) for j in range(i, n)}
        for (i, j), u in units.items():
            for (k, l), v in units.items():
                prod = u * v
                if j == k:
                    assert prod == units[(i, l)]
                else:
                    assert prod.is_zero()


# -- products against the plain convolution ----------------------------------

DIFF_POSETS = [
    chain_poset([1, 2, 3]),
    poset_from_relation("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
    poset_from_relation("abcde", [("a", "c"), ("b", "c"), ("c", "d"), ("c", "e")]),
]


def reference_product(f, g):
    """sum over z of f(x, z) g(z, y), summed pair by pair."""
    out = {}
    for (x, z), a in f.coeffs.items():
        for (w, y), b in g.coeffs.items():
            if z == w:
                out[(x, y)] = out.get((x, y), CycloNumber.from_rational(0)) + a * b
    return IncidenceElement(f.poset, out)


@st.composite
def coefficient(draw):
    """A scalar over a conductor dividing 24; zero one time in five."""
    if draw(st.integers(0, 4)) == 0:
        return CycloNumber.from_rational(0, draw(st.sampled_from([1, 3, 4])))
    q = Fraction(draw(st.integers(0, 23)), 24)
    return root_of_unity(q) * Fraction(draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1])),
                                       draw(st.integers(1, 2)))


@st.composite
def factor(draw, poset, diagonal):
    """An element whose nonzero support is diagonal when asked; explicit
    zeros may sit anywhere, and the constructor drops them."""
    coeffs = {}
    for x, y in poset.comparable_pairs():
        if draw(st.booleans()):
            c = draw(coefficient())
            if diagonal and x != y:
                c = CycloNumber.from_rational(0, draw(st.sampled_from([1, 2, 8])))
            coeffs[(x, y)] = c
    return IncidenceElement(poset, coeffs)


@st.composite
def factor_pairs(draw):
    poset = draw(st.sampled_from(DIFF_POSETS))
    left_diag, right_diag = draw(st.sampled_from(
        [(True, False), (False, True), (True, True), (False, False)]))
    return (draw(factor(poset, left_diag)), draw(factor(poset, right_diag)),
            left_diag, right_diag)


# two paths a < b < d and a < c < d whose products cancel
CANCELLING = (IncidenceElement(DIFF_POSETS[1], {("a", "b"): 1, ("a", "c"): 1}),
              IncidenceElement(DIFF_POSETS[1], {("b", "d"): 1, ("c", "d"): -1}),
              False, False)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(factor_pairs())
@example(CANCELLING)
def test_product_matches_reference_convolution(case):
    f, g, left_diag, right_diag = case
    if left_diag:
        assert all(x == y for x, y in f.coeffs)
    if right_diag:
        assert all(x == y for x, y in g.coeffs)
    prod = f * g
    assert prod == reference_product(f, g)
    # the product constructor skips the checks the public one makes
    assert all(f.poset.leq(x, y) for x, y in prod.coeffs)
    assert not any(c.is_zero() for c in prod.coeffs.values())
