"""Brute-force verification inside the concrete algebra I(X).

Everything here distrusts the construction: the grading axioms are
re-checked by exact linear algebra over the rationals (coordinate-wise
over the cyclotomic power basis), the two-step radical products are
decomposed with honest character projectors built from left/right
multiplications in I(X), and the link-count identity is recounted on the
realized poset.  Linear independence over the field Q(zeta_N) is decided
by closing each vector under multiplication by zeta and taking ranks
over Q, which needs no field division.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import lcm

from .abelian import intersect, subgroup_sum
from .bimodules import BimoduleClass
from .characters import dual_group
from .cyclo import _power_table, euler_phi, root_of_unity
from .errors import NoIntermediateBlock
from .incidence import IncidenceElement, identity_element
from .posets import link_counts
from .rowspan import RationalRowSpace


# ---------------------------------------------------------------------------
# flattening incidence elements to integer vectors


def _conductor_of(elements):
    n = 1
    for elem in elements:
        for c in elem.coeffs.values():
            n = lcm(n, c.conductor)
    return n


def _flatten(elems, pair_index, conductor):
    """Integer vectors of the elements, one block of phi(N) columns per
    comparable pair, all multiplied by one common scale that clears every
    denominator.  Ranks and membership are scale-invariant, and the common
    scale keeps integer combinations of the vectors proportional to the
    same combinations of the elements."""
    phi = euler_phi(conductor)
    lifted = [[(pair_index[pair] * phi, c.lift(conductor))
               for pair, c in elem.coeffs.items()] for elem in elems]
    scale = reduce(lcm, (c.den for blocks in lifted for _, c in blocks), 1)
    out = []
    for blocks in lifted:
        flat = {}
        for base, c in blocks:
            factor = scale // c.den
            for p, x in enumerate(c.nums):
                if x:
                    flat[base + p] = x * factor
        out.append(flat)
    return out


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

    conductor = _conductor_of([b.element for b in r.basis])
    phi = euler_phi(conductor)
    flats = _flatten([b.element for b in r.basis], pair_index, conductor)

    if len(r.basis) != dim:
        report.flag("basis-size", "basis",
                    f"{len(r.basis)} basis elements for dimension {dim}")
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

    for iu, u in enumerate(r.basis):
        for iv, v in enumerate(r.basis):
            w = u.element * v.element
            report.checked_products += 1
            if w.is_zero():
                continue
            target = u.degree + v.degree
            if target not in by_degree:
                report.flag("product-escape", f"basis[{iu}] * basis[{iv}]",
                            f"nonzero product but no component of degree "
                            f"{target.coords}")
                continue
            if not span_of_degree(target).contains(
                    _flatten([w], pair_index, conductor)[0]):
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
    they are formed a single time per (product, h) and flattened; each
    projector is then an integer combination of zeta-shifted conjugates
    (the 1/|H_ik| scale is dropped: ranks and zero-ness are unaffected).
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
    conjugates = []
    for w, deg in products:
        terms = [(diag[(i, h.coords)] * w) * diag[(k, (-h).coords)]
                 for h in elements]
        conjugates.append((_flatten(terms, pair_index, conductor), deg))
    projected = {}
    for chi in dual_group(h_ik):
        shifts = [int(((-chi(h)) % 1) * conductor) for h in elements]
        flats = []
        for per_h, deg in conjugates:
            acc = {}
            for flat, shift in zip(per_h, shifts):
                for col, x in _zeta_shift(flat, conductor, shift).items():
                    nv = acc.get(col, 0) + x
                    if nv:
                        acc[col] = nv
                    else:
                        del acc[col]
            if acc:
                flats.append((acc, deg))
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
