"""Grading data: the triple (skeleton poset, blocks, cover bimodules).

A GradingDatum parameterizes a group grading on an incidence algebra by a
finite skeleton poset E, a finite subgroup H_i per vertex, and a nonzero
bimodule class on every cover i <. j.  Bimodules between non-adjacent
comparable vertices are never stored: they are derived by composing cover
data along saturated chains, and validation checks that every chain gives
the same answer.

Degrees along chains are accumulated raw (no intermediate coset
reduction): the canonical degree of a derived class is only defined
modulo H_i + H_j at the endpoints, and reducing at intermediate vertices
would leak middle-block coset parts into later steps.  The raw per-pair
degree representatives are exactly the degrees the realized incidence
algebra carries, so realize() reuses them.  Each step applies the two-step
product rule that `bimodules` owns (its `_compose` and `_merge_state`,
which `bimodule_product` also runs) to the raw degrees.

Chains are never listed.  From each source i the derivation walks the
interval above i once, keeping per vertex the distinct raw states (ordered
(character, degree) lists) its chains arrive with.  A chain's next step
depends only on its state and the next cover, so each distinct state meets
each upper cover once and every result, conflict and disagreement of the
chains is still found.  The chains themselves are compared, not only the
triples i < k < j: raw composition ignores the coset reduction, so data can
pass every triple check while two chains disagree and the realization is
not graded (the B_3 datum over Z/3 in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .abelian import intersect, subgroup_sum
from .bimodules import BimoduleClass, bimodule_iso, realizable, twist
from .bimodules import _compose, _merge_state
from .characters import dual_group, restrict
from .cyclo import root_of_unity
from .errors import (
    AmbientMismatch,
    BudgetExceeded,
    ChainInconsistency,
    DegreeConflict,
    InternalTransitivityFailure,
    InvalidDatum,
    NotValid,
)
from .incidence import IncidenceElement
from .posets import Poset, poset_isomorphisms

# Largest conductor (lcm of the block exponents) validate_datum accepts,
# so that validate refuses the data realize and verify cannot handle.  The
# tests, benchmark and probes use at most 32.  Up to the budget the
# costliest fields are Q(zeta_p) for the primes 1019 and 1021: their tables
# (cyclo._power_table and _root_exponents, oracle._modular_root) build in
# 0.12-0.18 s from cold on a 2-vCPU Xeon with Python 3.11.7.
CONDUCTOR_BUDGET = 2 ** 10


class GradingDatum:
    """Parameterizing triple for a grading on an incidence algebra."""

    __slots__ = ("ambient", "skeleton", "blocks", "cover_bimodules")

    def __init__(self, ambient, skeleton, blocks, cover_bimodules):
        covers = set(skeleton.covers())
        if set(blocks) != set(skeleton.elements):
            raise InvalidDatum("blocks must be assigned to every skeleton vertex")
        for label, sub in blocks.items():
            if sub.ambient != ambient:
                raise InvalidDatum(f"block {label!r} lives over a different ambient")
            if not sub.is_finite:
                raise InvalidDatum(f"block {label!r} must be a finite subgroup")
        if set(cover_bimodules) != covers:
            raise InvalidDatum("bimodules must be given exactly on the covers")
        for (i, j), cls in cover_bimodules.items():
            if cls.left != blocks[i] or cls.right != blocks[j]:
                raise InvalidDatum(
                    f"bimodule on cover ({i!r}, {j!r}) has mismatched blocks")
            if cls.is_zero():
                # a cover with zero bimodule cannot come from a poset: the
                # cross pairs e_xy realizing i <. j would not exist
                raise InvalidDatum(
                    f"cover ({i!r}, {j!r}) carries the zero bimodule")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "skeleton", skeleton)
        object.__setattr__(self, "blocks", dict(blocks))
        object.__setattr__(self, "cover_bimodules", dict(cover_bimodules))

    def __setattr__(self, name, value):
        raise AttributeError("GradingDatum is immutable")

    def comparable_block_pairs(self):
        return [(x, y) for x, y in self.skeleton.comparable_pairs() if x != y]

    def __repr__(self):
        return (f"GradingDatum({len(self.skeleton.elements)} blocks, "
                f"{len(self.cover_bimodules)} covers)")


# ---------------------------------------------------------------------------
# chain derivation


def _walk_chains(d, i, cover_up, above):
    """Derive along the saturated chains from i, each distinct state once.

    Chains run in depth-first order over covers in label order.  Returns
    (results, conflicts): results[j] lists the distinct states at j in the
    order chains first reach them; conflicts[j] is the message of the first
    chain to j that forces a degree conflict.
    """
    h_i = d.blocks[i]
    results = {}
    conflicts = {}
    seen = set()

    def visit(v, state):
        for nxt in cover_up.get(v, ()):
            h_out = intersect(h_i, d.blocks[nxt])
            try:
                new = _merge_state(
                    _compose(state, d.cover_bimodules[(v, nxt)].pairs,
                             intersect(h_out, d.blocks[v]), h_out),
                    subgroup_sum(h_i, d.blocks[nxt]))
            except DegreeConflict as exc:
                # every chain through this prefix fails the same way
                for j in above:
                    if d.skeleton.leq(nxt, j):
                        conflicts.setdefault(j, str(exc))
                continue
            key = (nxt, tuple((chi.values, deg.coords) for chi, deg in new))
            if key not in seen:
                seen.add(key)
                results.setdefault(nxt, []).append(new)
                visit(nxt, new)

    for v in cover_up.get(i, ()):
        # a cover is the only chain to its top; later steps compose its
        # pairs as given, so only the result at v is merged
        pairs = d.cover_bimodules[(i, v)].pairs
        try:
            results[v] = [_merge_state(pairs, subgroup_sum(h_i, d.blocks[v]))]
        except DegreeConflict as exc:
            conflicts[v] = str(exc)
        visit(v, pairs)
    return results, conflicts


def _derive(d, collect_issues=None):
    """Raw derived data for every comparable pair.

    Returns {pair: [(character, raw degree)]}, each pair holding the data
    of its first chain.  With collect_issues given, conflicts are appended
    there (as (pair, message)) instead of raised, and the offending pair
    is left out of the result.
    """
    cover_up = {}
    for x, y in d.skeleton.covers():
        cover_up.setdefault(x, []).append(y)
    above = {}
    for i, j in d.comparable_block_pairs():
        above.setdefault(i, []).append(j)
    raw = {}
    for i, targets in above.items():
        # the memo lives for one source only, which bounds its memory
        results, conflicts = _walk_chains(d, i, cover_up, targets)
        for j in targets:
            if j in conflicts:
                error = DegreeConflict(conflicts[j])
            else:
                canonical = [BimoduleClass(d.blocks[i], d.blocks[j], res).sorted_key()
                             for res in results[j]]
                if all(c == canonical[0] for c in canonical[1:]):
                    raw[(i, j)] = results[j][0]
                    continue
                error = ChainInconsistency(
                    f"saturated chains between {i!r} and {j!r} derive "
                    f"non-isomorphic bimodules")
            if collect_issues is None:
                raise error
            collect_issues.append(((i, j), str(error)))
    return raw


def derive_full_bimodules(d):
    """Bimodule classes for every comparable pair i < j of the skeleton.

    Covers return the stored class; other pairs are derived along
    saturated chains.  Raises DegreeConflict / ChainInconsistency when the
    chains disagree.
    """
    raw = _derive(d)
    out = {}
    for pair, state in raw.items():
        if pair in d.cover_bimodules:
            out[pair] = d.cover_bimodules[pair]
        else:
            out[pair] = BimoduleClass(d.blocks[pair[0]], d.blocks[pair[1]], state)
    return out


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationIssue:
    condition: str
    location: str
    message: str


@dataclass
class ValidationReport:
    """Outcome of the three realizability conditions.

    conductor: the lcm of block exponents; over the built-in cyclotomic
    field condition (1) (characteristic and roots of unity) always holds
    and is reported for information only.

    derived: the raw data {pair: [(character, raw degree)]} of every pair
    without a conflict, which realize() reuses; it is never encoded.
    """

    conductor: int = 1
    issues: list = field(default_factory=list)
    checked_covers: int = 0
    checked_triples: int = 0
    derived: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def valid(self):
        return not self.issues


def validate_datum(d):
    report = ValidationReport()
    report.conductor = lcm(*(h.exponent() for h in d.blocks.values())) \
        if d.blocks else 1
    if report.conductor > CONDUCTOR_BUDGET:
        raise BudgetExceeded(f"conductor {report.conductor} exceeds the "
                             f"conductor budget of {CONDUCTOR_BUDGET}")

    # condition (2): every cover class embeds in the regular module
    for (i, j), cls in sorted(d.cover_bimodules.items(),
                              key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        report.checked_covers += 1
        if not realizable(cls):
            report.issues.append(ValidationIssue(
                "2", f"cover ({i!r}, {j!r})",
                "repeated character: not a submodule of the regular module"))

    # condition (3): derived data must be chain-independent ...
    conflicts = []
    raw = report.derived = _derive(d, collect_issues=conflicts)
    for pair, message in conflicts:
        report.issues.append(ValidationIssue(
            "3", f"pair ({pair[0]!r}, {pair[1]!r})", message))

    # ... and every two-step product must land exactly on the derived class
    skel = d.skeleton
    for i, j in d.comparable_block_pairs():
        for k in skel.strictly_between(i, j):
            report.checked_triples += 1
            left = raw.get((i, k))
            right = raw.get((k, j))
            whole = raw.get((i, j))
            if left is None or right is None or whole is None:
                continue  # already reported as a conflict
            issue = _triple_issue(d, i, k, j, left, right, whole)
            if issue is not None:
                report.issues.append(ValidationIssue(
                    "3", f"triple ({i!r}, {k!r}, {j!r})", issue))
    return report


def _triple_issue(d, i, k, j, left, right, whole):
    """Check [M_ij] == [M_ik] * [M_kj] with degree congruence mod H_i+H_j."""
    h_ij = intersect(d.blocks[i], d.blocks[j])
    reducer = subgroup_sum(d.blocks[i], d.blocks[j])
    # a character produced twice keeps the degree of its last production
    produced = dict(_compose(left, right, intersect(h_ij, d.blocks[k]), h_ij))
    have = {chi: deg for chi, deg in whole}
    if set(produced) != set(have):
        return "character sets of the two-step product and the derived class differ"
    for chi, deg in produced.items():
        if (deg - have[chi]) not in reducer:
            return (f"degree of {chi!r} differs between the two-step product "
                    f"and the derived class")
    return None


# ---------------------------------------------------------------------------
# realization


@dataclass(frozen=True)
class BasisVector:
    """One homogeneous basis element of the realized algebra.

    tag is ("diag", block, h) or ("cross", i, j, char_values, h, k); it
    records where the vector came from, which the oracle and the tests
    use to slice components.
    """

    element: IncidenceElement
    degree: object
    tag: tuple


class RealizedGrading:
    """A concrete graded incidence algebra produced from a datum."""

    __slots__ = ("datum", "poset", "vertex_data", "basis", "full_raw")

    def __init__(self, datum, poset, vertex_data, basis, full_raw):
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "vertex_data", vertex_data)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "full_raw", full_raw)

    def __setattr__(self, name, value):
        raise AttributeError("RealizedGrading is immutable")

    @property
    def ambient(self):
        return self.datum.ambient

    def block_of_vertex(self, v):
        return self.vertex_data[v][0]

    def __repr__(self):
        return (f"RealizedGrading({len(self.poset.elements)} vertices, "
                f"{len(self.basis)} basis elements)")


def vertex_label(block, chi):
    """Stable string label for the dual-group vertex (block, chi)."""
    return f"{block}|{','.join(str(v) for v in chi.values)}"


def _twist_orbit_representatives(h_left, h_right, h_mid):
    """Deterministic orbit representatives of H_i x H_j under
    (h, k) ~ (h + t, k - t) for t in the intersection: in element order an
    orbit is first reached at the least h of its coset h + H_ij, any k."""
    return [(h, k) for h in h_left.elements()
            if h_mid.least_coset_coords(h) == h
            for k in h_right.elements()]


def realize(d):
    """Build the graded incidence algebra the datum parameterizes.

    Vertices are the dual groups of the blocks; a lower vertex relates to
    a higher one exactly when their restrictions to the joint
    intersection differ by a derived character.  The homogeneous basis
    consists of the block Fourier images (degree h) and, per derived
    character chi of degree g, the images of h*m_chi*k over twist-orbit
    representatives (h, k), with degree h + g + k.

    Every coefficient is a root of unity written in one field,
    Q(zeta_N) with N = report.conductor, the lcm of the block exponents,
    so products inside the realized algebra never align conductors.
    """
    report = validate_datum(d)
    if not report.valid:
        raise NotValid(report)
    raw = report.derived
    conductor = report.conductor
    roots = {}

    def root(e):
        # zeta_N^e: one lifted number per exponent, shared by the basis
        c = roots.get(e)
        if c is None:
            c = roots[e] = root_of_unity(Fraction(e, conductor)).lift(conductor)
        return c

    skel = d.skeleton
    verts = []
    vertex_data = {}
    duals = {}
    for block in skel.elements:
        duals[block] = dual_group(d.blocks[block])
        for eta in duals[block]:
            lab = vertex_label(block, eta)
            verts.append(lab)
            vertex_data[lab] = (block, eta)
    vert_index = {v: n for n, v in enumerate(verts)}

    # N * eta(h) mod N for every vertex and every h of its block: the
    # generator coordinates of h are found once per block, and each value
    # is their dot product with N times eta's generator values (the sum
    # Character.__call__ forms; N is a multiple of every denominator)
    exponent = {}
    for block in skel.elements:
        h_block = d.blocks[block]
        carried = [n for n, order in enumerate(h_block._gen_orders) if order > 1]
        labelled = [(vertex_label(block, eta),
                     [int(v * conductor) for v in eta.values])
                    for eta in duals[block]]
        for h in h_block.elements():
            coords = h_block.generator_coords(h)
            coords = [coords[n] for n in carried]
            for lab, values in labelled:
                exponent[(lab, h.coords)] = sum(
                    c * v for c, v in zip(coords, values)) % conductor

    # restrictions of every vertex character to each relevant intersection
    up = [{n} for n in range(len(verts))]
    cross_pairs = {}
    for (i, j), state in raw.items():
        h_ij = intersect(d.blocks[i], d.blocks[j])
        res_i = {eta: restrict(eta, h_ij).values for eta in duals[i]}
        res_j = {eta: restrict(eta, h_ij).values for eta in duals[j]}
        for chi, deg in state:
            related = []
            for eta_j in duals[j]:
                want = tuple((a + b) % 1
                             for a, b in zip(chi.values, res_j[eta_j]))
                for eta_i in duals[i]:
                    if res_i[eta_i] == want:
                        vi = vertex_label(i, eta_i)
                        vj = vertex_label(j, eta_j)
                        up[vert_index[vi]].add(vert_index[vj])
                        related.append((vi, vj))
            cross_pairs[(i, j, chi)] = related

    # the relation is transitive by condition (3); re-check defensively
    for n in range(len(verts)):
        for m in up[n]:
            if not up[m] <= up[n]:
                raise InternalTransitivityFailure(
                    "derived relation failed transitivity")
    poset = Poset(verts, up, _checked=True)

    basis = []
    for block in skel.elements:
        h_block = d.blocks[block]
        for h in h_block.elements():
            coeffs = {}
            for eta in duals[block]:
                lab = vertex_label(block, eta)
                coeffs[(lab, lab)] = root(exponent[(lab, h.coords)])
            basis.append(BasisVector(
                IncidenceElement(poset, coeffs), h, ("diag", block, h.coords)))
    for (i, j), state in sorted(raw.items(),
                                key=lambda kv: (skel.index(kv[0][0]),
                                                skel.index(kv[0][1]))):
        h_i, h_j = d.blocks[i], d.blocks[j]
        h_ij = intersect(h_i, h_j)
        for chi, deg in state:
            related = cross_pairs[(i, j, chi)]
            for h, k in _twist_orbit_representatives(h_i, h_j, h_ij):
                coeffs = {}
                for vi, vj in related:
                    coeffs[(vi, vj)] = root(
                        (exponent[(vi, h.coords)] + exponent[(vj, k.coords)])
                        % conductor)
                basis.append(BasisVector(
                    IncidenceElement(poset, coeffs), h + deg + k,
                    ("cross", i, j, chi.values, h.coords, k.coords)))
    return RealizedGrading(d, poset, vertex_data, basis, raw)


# ---------------------------------------------------------------------------
# grading isomorphism


def grading_iso(d, d_prime):
    """Search for (poset isomorphism alpha, characters mu_i) matching the
    two data cover-wise: M_ij isomorphic to mu_i * M'_{alpha i, alpha j} * mu_j.

    Returns (True, (alpha, mu)) with one witness, or (False, None).  The
    mu search is exhaustive over the product of the dual groups, pruned
    cover-by-cover as soon as both endpoints are assigned.
    """
    if d.ambient != d_prime.ambient:
        raise AmbientMismatch("data over different ambient groups")

    skel = d.skeleton
    order = list(skel.elements)
    position = {v: n for n, v in enumerate(order)}
    covers_at = {v: [] for v in order}
    for (u, w) in skel.covers():
        late = u if position[u] > position[w] else w
        covers_at[late].append((u, w))

    def constraint(x, y):
        return d.blocks[x] == d_prime.blocks[y]

    for alpha in poset_isomorphisms(skel, d_prime.skeleton, constraint):
        assign = {}

        def cover_ok(u, w):
            target = d_prime.cover_bimodules[(alpha[u], alpha[w])]
            return bimodule_iso(d.cover_bimodules[(u, w)],
                                twist(target, assign[u], assign[w]))[0]

        def search(depth):
            if depth == len(order):
                return True
            v = order[depth]
            for mu in dual_group(d.blocks[v]):
                assign[v] = mu
                if all(cover_ok(u, w) for u, w in covers_at[v]):
                    if search(depth + 1):
                        return True
            del assign[v]
            return False

        if search(0):
            return True, (dict(alpha), dict(assign))
    return False, None
