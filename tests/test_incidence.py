import random
from fractions import Fraction

import pytest

from incidence_gradings.cyclo import root_of_unity
from incidence_gradings.errors import PosetMismatch
from incidence_gradings.incidence import (
    IncidenceElement,
    identity_element,
    incidence_dimension,
    matrix_unit,
)
from incidence_gradings.posets import chain_poset, poset_from_relation


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
