import random
from fractions import Fraction
from math import gcd

from incidence_gradings.abelian import AbelianGroup, all_subgroups, full_subgroup
from incidence_gradings.characters import dual_group
from incidence_gradings.cyclo import (
    CycloNumber,
    cyclotomic_polynomial,
    euler_phi,
    root_of_unity,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degrees are Euler phi
    for n, phi in [(1, 1), (2, 1), (8, 4), (9, 6), (24, 8)]:
        assert euler_phi(n) == phi


def test_roots_of_unity_basic():
    assert root_of_unity(Fraction(0)) == CycloNumber.from_rational(1)
    assert root_of_unity(Fraction(1, 2)) == -1
    i = root_of_unity(Fraction(1, 4))
    assert i * i == -1
    w = root_of_unity(Fraction(1, 3))
    assert w * w * w == 1
    assert root_of_unity(Fraction(1, 3)) + root_of_unity(Fraction(2, 3)) == -1


def test_root_multiplicative_order():
    # zeta_N has exact multiplicative order N
    for n in (1, 2, 3, 4, 6, 8, 12):
        z = root_of_unity(Fraction(1, n))
        acc = CycloNumber.from_rational(1)
        for k in range(1, n):
            acc = acc * z
            assert acc != 1
        assert acc * z == 1


def test_root_homomorphism_small_denominators():
    qs = [Fraction(a, b) for b in range(1, 25) for a in range(b) if gcd(a, b) == 1]
    rng = random.Random(23)
    for _ in range(300):
        q1, q2 = rng.choice(qs), rng.choice(qs)
        assert root_of_unity(q1) * root_of_unity(q2) == root_of_unity((q1 + q2) % 1)


def test_power_sum_reduces():
    # sum over Z/4 of chi(h)-th roots vanishes for chi of order 4
    total = CycloNumber.from_rational(0)
    for k in range(4):
        total = total + root_of_unity(Fraction(k, 4))
    assert total.is_zero()


def test_conductor_alignment():
    a = root_of_unity(Fraction(1, 2))
    b = root_of_unity(Fraction(1, 3))
    c = a * b
    assert c == root_of_unity(Fraction(5, 6))
    assert c.conductor == 6
    # equality across conductors
    assert root_of_unity(Fraction(1, 2)).lift(4) == root_of_unity(Fraction(2, 4))


def test_scalar_and_rational_arithmetic():
    x = root_of_unity(Fraction(1, 8))
    assert x + 0 == x
    assert x * 1 == x
    assert x * Fraction(2, 3) * Fraction(3, 2) == x
    y = CycloNumber.from_rational(Fraction(5, 6))
    assert y + y == Fraction(5, 3)
    assert (x - x).is_zero()


def field_elements(rng, conductor):
    phi = euler_phi(conductor)
    nums = [rng.randint(-4, 4) for _ in range(phi)]
    return CycloNumber(conductor, nums, rng.randint(1, 5))


def test_field_axioms_random():
    rng = random.Random(29)
    for conductor in (3, 4, 6, 8, 12, 24):
        for _ in range(25):
            a = field_elements(rng, conductor)
            b = field_elements(rng, conductor)
            c = field_elements(rng, conductor)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a * CycloNumber.from_rational(1) == a
            assert (a * CycloNumber.from_rational(0)).is_zero()


def test_mixed_conductor_axioms():
    rng = random.Random(31)
    for _ in range(40):
        a = field_elements(rng, rng.choice((2, 3, 4)))
        b = field_elements(rng, rng.choice((6, 8)))
        c = field_elements(rng, rng.choice((3, 12)))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def _embed(q):
    return root_of_unity(q)


def test_first_orthogonality():
    # sum over h of chi(h) psi(h)^{-1} is |H| if chi == psi else 0
    groups = [AbelianGroup(0, [n]) for n in (2, 3, 4, 8)]
    groups += [AbelianGroup(0, [2, 2]), AbelianGroup(0, [2, 4]),
               AbelianGroup(0, [4, 4]), AbelianGroup(0, [2, 8])]
    for group in groups:
        h = full_subgroup(group)
        chars = dual_group(h)
        elems = list(h.elements())
        for chi in chars:
            for psi in chars:
                total = CycloNumber.from_rational(0)
                for g in elems:
                    total = total + _embed((chi(g) - psi(g)) % 1)
                if chi == psi:
                    assert total == h.order
                else:
                    assert total.is_zero()


def test_second_orthogonality():
    # sum over chi of chi(g) chi(k)^{-1} is |H| if g == k else 0
    for group in (AbelianGroup(0, [8]), AbelianGroup(0, [2, 4]),
                  AbelianGroup(0, [2, 2])):
        for h in all_subgroups(group):
            chars = dual_group(h)
            for g in h.elements():
                for k in h.elements():
                    total = CycloNumber.from_rational(0)
                    for chi in chars:
                        total = total + _embed((chi(g) - chi(k)) % 1)
                    if g == k:
                        assert total == h.order
                    else:
                        assert total.is_zero()
