"""Exact integer linear algebra: Hermite and Smith normal forms.

Everything here works on small dense matrices given as lists of rows of
Python ints, so there is no overflow anywhere.  The Hermite normal form
(no row transform is tracked) is the canonical representative used for
subgroup identity and, on stacked rows, for intersections; reduction
against it (`hnf_reduce`; Cohen, GTM 138, 2.4) picks coset representatives.
The Smith normal form (with column transforms) produces invariant-factor
generators.
"""


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def row_hnf(rows, ncols):
    """Canonical row-style Hermite normal form; returns (hnf_rows,
    pivot_cols).  Pivots are positive and the entries above a pivot are
    reduced into [0, pivot)."""
    A = [list(r) for r in rows]
    m = len(A)
    for r in A:
        if len(r) != ncols:
            raise ValueError("row length mismatch")
    rank = 0
    for col in range(ncols):
        # Euclidean elimination below position `rank` in this column.
        while True:
            piv, pval = None, None
            for i in range(rank, m):
                v = A[i][col]
                if v and (pval is None or abs(v) < pval):
                    piv, pval = i, abs(v)
            if piv is None:
                break
            if piv != rank:
                A[rank], A[piv] = A[piv], A[rank]
            done = True
            p = A[rank][col]
            for i in range(rank + 1, m):
                v = A[i][col]
                if v:
                    q = v // p
                    if q:
                        A[i] = [a - q * b for a, b in zip(A[i], A[rank])]
                    if A[i][col]:
                        done = False
            if done:
                break
        if rank < m and A[rank][col]:
            if A[rank][col] < 0:
                A[rank] = [-a for a in A[rank]]
            p = A[rank][col]
            for i in range(rank):
                q = A[i][col] // p
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], A[rank])]
            rank += 1
    pivots = []
    for i in range(rank):
        for j in range(ncols):
            if A[i][j]:
                pivots.append(j)
                break
    return A[:rank], pivots


def hnf_reduce(hnf_rows, pivot_cols, target):
    """Reduce `target` by HNF rows, each pivot coordinate into [0, pivot).

    Returns (coeffs, rest) with target == sum(c * row) + rest.  `rest` is
    zero exactly when target lies in the lattice of the rows, and equal for
    any two targets in one coset of it: no nonzero lattice vector has its
    leading entry, a multiple of a pivot, inside (-pivot, pivot).
    """
    rest = list(target)
    coeffs = []
    for row, pc in zip(hnf_rows, pivot_cols):
        c = rest[pc] // row[pc]
        if c:
            rest = [a - c * b for a, b in zip(rest, row)]
        coeffs.append(c)
    return coeffs, rest


def smith_normal_form(rows, ncols):
    """Smith normal form tracking only the column transform.

    Returns (diag, V, W) such that U * rows * V is diagonal with entries
    `diag` (each dividing the next, 1s included) for some unimodular U,
    with W = V^{-1}.  Row operations are untracked: only the column basis
    change matters for quotient-group generators.
    """
    A = [list(r) for r in rows]
    m, n = len(A), ncols
    V = _identity(n)
    W = _identity(n)

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        W[i], W[j] = W[j], W[i]

    def col_addmul(dst, src, q):
        # column dst += q * column src;  W gets the inverse row operation.
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]
        W[src] = [a - q * b for a, b in zip(W[src], W[dst])]

    t = 0
    while True:
        # Smallest nonzero entry of the trailing submatrix becomes the pivot.
        pos, best = None, None
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    pos, best = (i, j), abs(v)
        if pos is None:
            break
        i, j = pos
        if i != t:
            A[t], A[i] = A[i], A[t]
        if j != t:
            col_swap(t, j)
        while True:
            # Clear column t below the pivot with row operations.
            for i in range(t + 1, m):
                while A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
            # Clear row t to the right with column operations.
            for j in range(t + 1, n):
                while A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        col_addmul(j, t, -q)
                    if A[t][j]:
                        col_swap(t, j)
            if all(A[i][t] == 0 for i in range(t + 1, m)):
                if all(A[t][j] == 0 for j in range(t + 1, n)):
                    break
        # Divisibility fix: pivot must divide every remaining entry.
        p = A[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            A[t] = [a + b for a, b in zip(A[t], A[offender])]
            continue
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
        t += 1
    diag = [A[i][i] for i in range(t)]
    return diag, V, W


def mat_mul(A, B):
    """Product of two integer matrices (lists of rows)."""
    if not A:
        return []
    cols = len(B[0]) if B else 0
    Bt = list(zip(*B)) if B else []
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] or [0] * cols
            for row in A]
