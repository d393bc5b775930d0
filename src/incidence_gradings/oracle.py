"""Brute-force verification inside the concrete algebra I(X).

Everything here distrusts the construction: the grading axioms are
re-checked by exact linear algebra, the two-step radical products are
decomposed with honest character projectors built from left/right
multiplications in I(X), and the link-count identity is recounted on the
realized poset.

Products.  Each element is written once as a preimage in the group ring
Z[x]/(x^N - 1): a coefficient equal to zeta_N^e becomes the monomial x^e,
any other its power-basis numerators, all at one common integer scale.
Products then only add exponents mod N, and each result is reduced to
the power basis of Q(zeta_N) once.  x -> zeta_N is a ring homomorphism,
so the reduced vector is exactly a positive multiple of the product's;
zero tests and spans do not see the multiple.

Full rank.  The basis is mapped to F_p^dim, one entry per comparable
pair, with p the least prime = 1 (mod N) above 2^62 and zeta_N sent to a
root r of Phi_N mod p.  That map is reduction modulo a prime ideal of
Z[zeta_N] above p, so rank dim mod p makes the determinant nonzero and
proves full rank over Q(zeta_N).  Any other outcome proves nothing, and
independence and spanning are then decided exactly: each vector is closed
under multiplication by zeta and ranks are taken over Q, which needs no
field division.

Membership of a product in the span of its degree is always decided over
Q in that zeta-closed form, because no modular answer certifies "in the
span".
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import lcm

from .abelian import intersect, subgroup_sum
from .bimodules import BimoduleClass
from .characters import dual_group
from .cyclo import (
    _power_table,
    _root_exponents,
    cyclotomic_polynomial,
    euler_phi,
    root_of_unity,
)
from .errors import NoIntermediateBlock
from .incidence import IncidenceElement, identity_element
from .posets import link_counts
from .rowspan import RationalRowSpace


# ---------------------------------------------------------------------------
# group-ring preimages and flattening to integer vectors


def _conductor_of(elements):
    n = 1
    for elem in elements:
        for c in elem.coeffs.values():
            n = lcm(n, c.conductor)
    return n


def _ring_preimages(elems, conductor):
    """Each element as a sparse {(x, y, exponent): int}, a preimage in
    Z[x]/(x^N - 1) of all its coefficients at one common scale that
    clears every denominator: a coefficient equal to zeta_N^e becomes
    the monomial scale * x^e, any other its power-basis numerators.

    x -> zeta_N is a ring homomorphism, so a product formed here and then
    reduced (`_reduce`) is exactly scale^2 times the product of the
    elements.  Returns (preimages, scale)."""
    exponent_of, _ = _root_exponents(conductor)
    lifted = [[(pair, c.lift(conductor)) for pair, c in elem.coeffs.items()]
              for elem in elems]
    scale = reduce(lcm, (c.den for terms in lifted for _, c in terms), 1)
    out = []
    for terms in lifted:
        pre = {}
        for (x, y), c in terms:
            e = exponent_of.get(c.nums) if c.den == 1 else None
            if e is not None:
                pre[(x, y, e)] = scale
            else:
                factor = scale // c.den
                for p, num in enumerate(c.nums):
                    if num:
                        pre[(x, y, p)] = num * factor
        out.append(pre)
    return out, scale


def _by_first(pre):
    # product loops index the right factor by its first vertex
    out = {}
    for (z, y, e), c in pre.items():
        out.setdefault(z, []).append((y, e, c))
    return out


def _ring_product(a, b_by_first, conductor):
    """The group-ring product of a and an element indexed by `_by_first`:
    convolution over the poset, exponents added mod N."""
    out = {}
    for (x, z, ea), ca in a.items():
        for y, eb, cb in b_by_first.get(z, ()):
            key = (x, y, (ea + eb) % conductor)
            out[key] = out.get(key, 0) + ca * cb
    return out


def _reduce(elem, pair_index, conductor):
    """The integer vector of a group-ring element: one block of phi(N)
    power-basis columns per comparable pair, each (pair, exponent) term
    reduced through its `_power_table` row; zero entries are dropped."""
    phi = euler_phi(conductor)
    _, rows = _root_exponents(conductor)
    flat = {}
    for (x, y, e), c in elem.items():
        if c:
            base = pair_index[(x, y)] * phi
            for q, t in rows[e]:
                col = base + q
                flat[col] = flat.get(col, 0) + c * t
    return {col: v for col, v in flat.items() if v}


def _flatten(elems, pair_index, conductor):
    """Integer vectors of the elements, all multiplied by one common scale
    that clears every denominator.  Ranks and membership are
    scale-invariant, and the common scale keeps integer combinations of
    the vectors proportional to the same combinations of the elements."""
    pres, _ = _ring_preimages(elems, conductor)
    return [_reduce(pre, pair_index, conductor) for pre in pres]


def _zeta_shift(flat, conductor, power):
    """The flattened vector of zeta^power times the element."""
    if power == 0:
        return dict(flat)
    phi = euler_phi(conductor)
    table = _power_table(conductor)
    out = {}
    for col, x in flat.items():
        base = col - col % phi
        row = table[col % phi + power]
        for q, coeff in enumerate(row):
            if coeff:
                c = base + q
                nv = out.get(c, 0) + x * coeff
                if nv:
                    out[c] = nv
                else:
                    out.pop(c, None)
    return out


def _zeta_closed_space(flats, conductor):
    """Q-row space of all zeta-power multiples; its rank is phi(N) times
    the rank over the cyclotomic field."""
    phi = euler_phi(conductor)
    space = RationalRowSpace()
    for flat in flats:
        for a in range(phi):
            space.add(_zeta_shift(flat, conductor, a))
    return space


# ---------------------------------------------------------------------------
# full rank modulo a prime


_CERTIFICATE_FLOOR = 2 ** 62
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    """Miller-Rabin on the first 13 prime bases, deterministic for
    n < 3.3 * 10**24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=64)  # conductors, like cyclo's field memos
def _modular_root(conductor):
    """(p, r): the least prime p = 1 (mod N) above 2^62, and r with
    Phi_N(r) = 0 (mod p).  x^N - 1 has no repeated roots mod p, so r is a
    primitive N-th root of unity there."""
    p = _CERTIFICATE_FLOOR // conductor * conductor + 1
    while p <= _CERTIFICATE_FLOOR or not _is_prime(p):
        p += conductor
    phi_n = cyclotomic_polynomial(conductor)
    for g in itertools.count(2):
        r = pow(g, (p - 1) // conductor, p)
        if reduce(lambda acc, c: (acc * r + c) % p, reversed(phi_n), 0) == 0:
            return p, r


def _rank_mod_p(vectors, p):
    """Rank over F_p of sparse integer vectors {column: int}, by
    elimination on the least column."""
    rows = {}
    for vec in vectors:
        v = {c: x % p for c, x in vec.items() if x % p}
        while v:
            pivot = min(v)
            row = rows.get(pivot)
            if row is None:
                inv = pow(v[pivot], -1, p)
                rows[pivot] = {c: x * inv % p for c, x in v.items()}
                break
            f = v[pivot]
            for c, x in row.items():
                nv = (v.get(c, 0) - f * x) % p
                if nv:
                    v[c] = nv
                else:
                    v.pop(c, None)
    return len(rows)


def _full_rank_mod_p(preimages, scale, pair_index, conductor):
    """True when the images of the preimages in F_p^dim (zeta_N -> r, one
    entry per pair) have rank dim.  Their determinant is then nonzero
    modulo a prime of Z[zeta_N] above p, so the elements are linearly
    independent over Q(zeta_N).  False proves nothing."""
    p, r = _modular_root(conductor)
    if scale % p == 0:
        return False
    powers = [pow(r, e, p) for e in range(conductor)]
    vectors = []
    for pre in preimages:
        vec = {}
        for (x, y, e), c in pre.items():
            col = pair_index[(x, y)]
            vec[col] = vec.get(col, 0) + c * powers[e]
        vectors.append(vec)
    return _rank_mod_p(vectors, p) == len(pair_index)


# ---------------------------------------------------------------------------
# grading verification


@dataclass
class Violation:
    kind: str
    location: str
    message: str


@dataclass
class VerificationReport:
    violations: list = field(default_factory=list)
    dimension: int = 0
    basis_size: int = 0
    checked_products: int = 0

    @property
    def ok(self):
        return not self.violations

    def flag(self, kind, location, message):
        self.violations.append(Violation(kind, location, message))


def verify_grading(r):
    """Re-check the grading axioms from scratch on a realized algebra.

    (a) the stored homogeneous basis is a basis of I(X): correct count
        and full rank over the cyclotomic field;
    (b) for every ordered pair of basis elements the product lies in the
        span of the basis elements of the summed degree;
    (c) the identity is homogeneous of degree 0.
    """
    report = VerificationReport()
    poset = r.poset
    pairs = poset.comparable_pairs()
    pair_index = {p: n for n, p in enumerate(pairs)}
    dim = len(pairs)
    report.dimension = dim
    report.basis_size = len(r.basis)

    elems = [b.element for b in r.basis]
    conductor = _conductor_of(elems)
    phi = euler_phi(conductor)
    preimages, scale = _ring_preimages(elems, conductor)
    flats = [_reduce(pre, pair_index, conductor) for pre in preimages]

    if len(r.basis) != dim:
        report.flag("basis-size", "basis",
                    f"{len(r.basis)} basis elements for dimension {dim}")
    if len(r.basis) != dim or not _full_rank_mod_p(
            preimages, scale, pair_index, conductor):
        # no certificate: decide independence and spanning exactly
        space = RationalRowSpace()
        for idx, flat in enumerate(flats):
            added = sum(1 for a in range(phi)
                        if space.add(_zeta_shift(flat, conductor, a)))
            if added != phi:
                report.flag("dependent-basis", f"basis[{idx}]",
                            "element lies in the span of its predecessors")
        if space.rank != phi * dim:
            report.flag("not-spanning", "basis",
                        f"rank {space.rank} over Q, expected {phi * dim}")

    by_degree = {}
    for idx, b in enumerate(r.basis):
        by_degree.setdefault(b.degree, []).append(idx)
    degree_spaces = {}

    def span_of_degree(deg):
        if deg not in degree_spaces:
            members = by_degree.get(deg, ())
            degree_spaces[deg] = _zeta_closed_space(
                [flats[m] for m in members], conductor)
        return degree_spaces[deg]

    # a product is zero unless some pair of u ends where one of v starts
    ends = [{z for _, z, _ in pre} for pre in preimages]
    indexed = [_by_first(pre) for pre in preimages]
    for iu, u in enumerate(r.basis):
        for iv, v in enumerate(r.basis):
            report.checked_products += 1
            if ends[iu].isdisjoint(indexed[iv]):
                continue
            # scale^2 times the flattened u * v; membership ignores the scale
            w = _reduce(_ring_product(preimages[iu], indexed[iv], conductor),
                        pair_index, conductor)
            if not w:
                continue
            target = u.degree + v.degree
            if target not in by_degree:
                report.flag("product-escape", f"basis[{iu}] * basis[{iv}]",
                            f"nonzero product but no component of degree "
                            f"{target.coords}")
                continue
            if not span_of_degree(target).contains(w):
                report.flag("product-escape", f"basis[{iu}] * basis[{iv}]",
                            "product escapes the component of the summed degree")

    zero = r.ambient.zero()
    one_flat = _flatten([identity_element(poset)], pair_index, conductor)[0]
    if zero not in by_degree or not span_of_degree(zero).contains(one_flat):
        report.flag("identity-degree", "identity",
                    "identity element is not homogeneous of degree 0")
    return report


# ---------------------------------------------------------------------------
# radical-square decomposition by character projectors


def _diagonal_images(r):
    out = {}
    for b in r.basis:
        if b.tag[0] == "diag":
            out[(b.tag[1], b.tag[2])] = b.element
    return out


def _cross_basis(r, i, j):
    return [b for b in r.basis
            if b.tag[0] == "cross" and b.tag[1] == i and b.tag[2] == j]


def apply_twist_projector(r, i, k, chi, elem):
    """pi_chi(v) = (1/|H_ik|) sum over h of chi(h)^{-1} * psi_i(h) v psi_k(-h),
    the honest projector of the twist action on the (i, k) strip."""
    diag = _diagonal_images(r)
    h_ik = intersect(r.datum.blocks[i], r.datum.blocks[k])
    total = IncidenceElement(r.poset, {})
    for h in h_ik.elements():
        left = diag[(i, h.coords)]
        right = diag[(k, (-h).coords)]
        term = (left * elem) * right
        total = total + term.scale(root_of_unity((-chi(h)) % 1))
    return total.scale(Fraction(1, h_ik.order))


def _isotypic_flats(r, i, k):
    """The nonzero two-step products M_ij * M_jk between i and k, the
    layout they are flattened in, and their flattened pi_chi images.

    The conjugates psi_i(h) w psi_k(-h) are shared by all characters, so
    they are formed a single time per (product, h), as group-ring
    products of the preimages; each projection is then the sum of the
    conjugates shifted by chi(h)^{-1} in the exponents, reduced once per
    (character, product) (the 1/|H_ik| scale is dropped and a common
    positive scale added: ranks and zero-ness are unaffected).
    Returns (products, pair_index, conductor, {chi: [(flat, degree)]}),
    each chi's list in product order with zero projections omitted.
    """
    mids = r.datum.skeleton.strictly_between(i, k)
    if not mids:
        raise NoIntermediateBlock(f"no block strictly between {i!r} and {k!r}")
    products = []
    for j in mids:
        for u in _cross_basis(r, i, j):
            for v in _cross_basis(r, j, k):
                w = u.element * v.element
                if not w.is_zero():
                    products.append((w, u.degree + v.degree))
    diag = _diagonal_images(r)
    h_ik = intersect(r.datum.blocks[i], r.datum.blocks[k])
    pair_index = {p: n for n, p in enumerate(r.poset.comparable_pairs())}
    conductor = lcm(_conductor_of([w for w, _ in products]), h_ik.exponent())
    elements = list(h_ik.elements())
    m = len(elements)
    pres, _ = _ring_preimages(
        [diag[(i, h.coords)] for h in elements]
        + [diag[(k, (-h).coords)] for h in elements]
        + [w for w, _ in products], conductor)
    lefts, rights = pres[:m], [_by_first(pre) for pre in pres[m:2 * m]]
    conjugates = []
    for pre in pres[2 * m:]:
        w = _by_first(pre)
        conjugates.append([_ring_product(_ring_product(left, w, conductor),
                                         right, conductor)
                           for left, right in zip(lefts, rights)])
    projected = {}
    for chi in dual_group(h_ik):
        shifts = [int(((-chi(h)) % 1) * conductor) for h in elements]
        flats = []
        for per_h, (_, deg) in zip(conjugates, products):
            acc = {}
            for conj, shift in zip(per_h, shifts):
                for (x, y, e), c in conj.items():
                    key = (x, y, (e + shift) % conductor)
                    acc[key] = acc.get(key, 0) + c
            flat = _reduce(acc, pair_index, conductor)
            if flat:
                flats.append((flat, deg))
        projected[chi] = flats
    return products, pair_index, conductor, projected


def radical_square_component(r, i, k):
    """Decompose the span of the two-step products M_ij * M_jk in I(X).

    The span is split into isotypic pieces with the character projectors;
    each nonzero piece contributes (chi, degree) where the degree is read
    off the surviving products' degree support.  Requires at least one
    intermediate block between i and k.
    """
    skel = r.datum.skeleton
    if not skel.lt(i, k):
        raise NoIntermediateBlock(f"blocks {i!r} and {k!r} are not comparable")
    h_i = r.datum.blocks[i]
    h_k = r.datum.blocks[k]
    coset = subgroup_sum(h_i, h_k)
    pairs = []
    _, _, _, projected = _isotypic_flats(r, i, k)
    for chi, flats in projected.items():
        if not flats:
            continue
        reps = {coset.least_coset_coords(deg).coords for _, deg in flats}
        assert len(reps) == 1, "isotypic piece spread over several degree cosets"
        pairs.append((chi, flats[0][1]))
    return BimoduleClass(h_i, h_k, pairs)


def isotypic_rank_table(r, i, k):
    """Rank of each character's isotypic piece plus the total span rank,
    over the cyclotomic field (projector completeness checks)."""
    products, pair_index, conductor, projected = _isotypic_flats(r, i, k)
    phi = euler_phi(conductor)
    ranks = {}
    for chi, flats in projected.items():
        q_rank = _zeta_closed_space([f for f, _ in flats], conductor).rank
        assert q_rank % phi == 0
        ranks[chi] = q_rank // phi
    total = _zeta_closed_space(
        _flatten([w for w, _ in products], pair_index, conductor),
        conductor).rank
    assert total % phi == 0
    return ranks, total // phi


# ---------------------------------------------------------------------------
# link-count identity


@dataclass
class LinkEquationReport:
    violations: list = field(default_factory=list)
    checked_pairs: int = 0

    @property
    def ok(self):
        return not self.violations


def check_link_equation(r):
    """l(dual H_i, dual H_j) = |H_i| l(eta_i, dual H_j) = |H_j| l(dual H_i, eta_j)
    for every comparable block pair and every vertex choice."""
    report = LinkEquationReport()
    partition = {}
    for v in r.poset.elements:
        partition.setdefault(r.block_of_vertex(v), []).append(v)
    if len(partition) < 2:
        return report
    counts = link_counts(r.poset, partition)
    blocks = r.datum.blocks
    for i, j in r.datum.comparable_block_pairs():
        report.checked_pairs += 1
        total = counts.block_pairs[(i, j)]
        for v in partition[i]:
            if blocks[i].order * counts.element_to_block[(v, j)] != total:
                report.violations.append(
                    (i, j, v, "left link count breaks the identity"))
        for v in partition[j]:
            if blocks[j].order * counts.block_to_element[(i, v)] != total:
                report.violations.append(
                    (i, j, v, "right link count breaks the identity"))
    return report
