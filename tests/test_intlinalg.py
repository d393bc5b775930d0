import random

from hypothesis import given, settings, strategies as st

from incidence_gradings.intlinalg import (
    hnf_reduce,
    mat_mul,
    row_hnf,
    smith_normal_form,
)


def random_matrix(rng, m, n, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def test_hnf_canonical_shape():
    hnf, pivots = row_hnf([[4, 2], [2, 4]], 2)
    assert pivots == [0, 1]
    for row, pc in zip(hnf, pivots):
        assert row[pc] > 0
    # entries above each pivot reduced into [0, pivot)
    for i, pc in enumerate(pivots):
        for j in range(i):
            assert 0 <= hnf[j][pc] < hnf[i][pc]


def test_hnf_generator_order_independent():
    rng = random.Random(7)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = random_matrix(rng, m, n)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert row_hnf(rows, n) == row_hnf(shuffled, n)


def combine(coeffs, rows, n):
    return [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]


def test_hnf_reduce_roundtrip():
    rng = random.Random(17)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = random_matrix(rng, m, n)
        hnf, pivots = row_hnf(rows, n)
        coeffs = [rng.randint(-3, 3) for _ in hnf]
        target = combine(coeffs, hnf, n)
        got, rest = hnf_reduce(hnf, pivots, target)
        assert not any(rest)
        assert combine(got, hnf, n) == target


MATRICES = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=4),
    st.lists(st.integers(-20, 20), min_size=n, max_size=n),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4)))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(MATRICES)
def test_hnf_reduce_splits_target_into_lattice_part_and_coset_rest(case):
    n, rows, target, shift = case
    hnf, pivots = row_hnf(rows, n)
    coeffs, rest = hnf_reduce(hnf, pivots, target)
    assert [a + b for a, b in zip(combine(coeffs, hnf, n), rest)] == target
    for row, pc in zip(hnf, pivots):
        assert 0 <= rest[pc] < row[pc]
    # rest is zero exactly for members: membership decided independently
    # by whether appending the target keeps the lattice's Hermite form
    member = row_hnf(rows + [target], n) == (hnf, pivots)
    assert (not any(rest)) == member
    # and is one vector per coset
    moved = [a + b for a, b in zip(target, combine(shift, hnf, n))]
    assert hnf_reduce(hnf, pivots, moved)[1] == rest


def test_smith_normal_form_properties():
    rng = random.Random(19)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = random_matrix(rng, m, n)
        diag, V, W = smith_normal_form(rows, n)
        # V * W == identity
        assert mat_mul(V, W) == [[int(i == j) for j in range(n)] for i in range(n)]
        # divisibility chain
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        assert all(d > 0 for d in diag)
        # row space of rows*V equals row space of the diagonal matrix
        AV = mat_mul(rows, V)
        D = [[0] * n for _ in range(len(diag))]
        for i, d in enumerate(diag):
            D[i][i] = d
        assert row_hnf(AV, n) == row_hnf(D, n)
