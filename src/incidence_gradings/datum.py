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

Condition (3) runs on integer rows.  A state is a tuple of (character
exponents, degree coordinates) rows; degrees add as coordinate tuples,
torsion coordinates reduced and free ones not, and cosets are compared by
Hermite remainders against the reducer's rows (`Subgroup.coset_key`).
Every composition, walk and triple check alike, looks its factor rows up
in a fibers table (`bimodules._fibers`), held on its output subgroup and
shared by every call, which fills a miss through restrict, * and
extension_fiber.  realize() reads the derived rows through the same
tables: eta_i lies below eta_j when it restricts on H_i /\\ H_j to
chi * eta_j, the two-step product of a row with the diagonal.  Character
and GroupElement objects are built only at the edges: for messages, for
the realized vertices, tags and degrees, and where
derive_full_bimodules() or the CLI's `verify` builds a derived pair's
class (`bimodules._class_of_rows`).

Chains are never listed.  From each source i the derivation walks the
interval above i once, keeping per vertex the distinct raw states its
chains arrive with.  A chain's next step depends only on its state and
the next cover, so each distinct state meets each upper cover once and
every result, conflict and disagreement of the chains is still found.
The same holds across sources: a step from the state at v over the cover
v <. w reads only the state, the cover's rows and the blocks H_i, H_v
and H_w (its fibers table, its reducer H_i + H_w and the domain
H_i /\\ H_w that names a conflict), so one derivation computes each
distinct (state, rows, H_i, H_v, H_w) once and reads the merged state, or
the DegreeConflict with its message, from a memo at every later
occurrence.  A hit returns what the step would compute, so the walk, its
order and its messages are unchanged.
The chains themselves are compared, not only the triples i < k < j: raw
composition ignores the coset reduction, so data can pass every triple
check while two chains disagree and the realization is not graded (the
B_3 datum over Z/3 in the tests).

The triple check skips only what the walk has already decided.  Take
i < k <. j with every cover class realizable.  The walk from i composed
each state at k, raw[(i, k)] among them, with the cover (k, j): the same
H_i /\\ H_k /\\ H_j and H_i /\\ H_j as the triple check, and the cover's
rows, which with no repeated character are raw[(k, j)].  It merged the
result modulo H_i + H_j and found its class equal to that of
raw[(i, j)], or the pair carries an issue and none of its triples is
checked.  So the triple check would find nothing: the triple is counted
but not checked.  Nothing like this holds for i <. k < j: the walk
composes one cover at a time and never composes raw[(i, k)] with
raw[(k, j)], which the walk from k merged modulo H_k + H_j.  The Z/6
datum in the tests is refused only by its triple (0, 1, 4), where 0 <. 1.
A triple's verdict reads only the rows of (i, k), (k, j) and (i, j) and
the blocks H_i, H_k and H_j, so one validation decides each distinct
(left, right, whole, H_i, H_k, H_j) once; the other triples with that key
read its message, or None, from a memo and report it at their own
location.  Both memos live for one call and are freed with it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import count
from math import lcm

from . import abelian
from .abelian import _coordinate_sum, _element, intersect, subgroup_sum
from .bimodules import bimodule_iso, realizable
from .bimodules import _class_of_rows, _compose, _fibers, _merge_state, _rows, _twist_by
from .characters import _character, dual_group, exponent_rows, restrict
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
from .posets import Poset, connected_components, poset_isomorphisms

# Largest conductor (lcm of the block exponents) validate_datum accepts,
# so that validate refuses the data realize and verify cannot handle.  The
# tests and golden data use at most 64, the benchmark 24.  Up to the
# budget the costliest fields are Q(zeta_p) for the primes 1019 and 1021:
# their tables (cyclo._power_table and _root_exponents) build in about
# 0.19 s from cold on a 2-vCPU Xeon with Python 3.11.7.
CONDUCTOR_BUDGET = 2 ** 10
# Largest total support (the nonzero entries of all basis vectors) realize()
# builds, which bounds the dimension too: a basis has dim nonzero members.
# The basis, `exponent_rows`, the oracle's shapes and the JSON output are
# all that size, and the vertex budget does not bound it: one (Z/2)^12
# block is 4096 vertices but 2^24 entries, 14 s and 2.5 GB in realize().
# At the budget, one (Z/2)^10 block, realize() takes 0.75 s at a peak of
# 150 MB on a 2-vCPU Xeon with Python 3.11.7.
# The tests, golden data and benchmark stay below 2^19: B_7 over Z/4
# needs about 35,000 entries, the 3-chain of full Z/256 blocks 393,216.
SUPPORT_BUDGET = 2 ** 20


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

    def __reduce__(self):
        return GradingDatum, (self.ambient, self.skeleton, self.blocks,
                              self.cover_bimodules)

    def comparable_block_pairs(self):
        return [(x, y) for x, y in self.skeleton.comparable_pairs() if x != y]

    def __repr__(self):
        return (f"GradingDatum({len(self.skeleton.elements)} blocks, "
                f"{len(self.cover_bimodules)} covers)")


# ---------------------------------------------------------------------------
# chain derivation


class _BlockTriples(dict):
    """(H_a, H_b, H_c) -> (the `bimodules._fibers` table from H_a /\\ H_b
    and H_b /\\ H_c through H_a /\\ H_b /\\ H_c to H_a /\\ H_c,
    H_a /\\ H_c, H_a + H_c): what a two-step product over the three
    blocks reads.  The walk reads it at (H_i, H_v, H_next), the triple
    check at (H_i, H_k, H_j).  A miss is filled through intersect,
    subgroup_sum and _fibers."""

    __slots__ = ()

    def __missing__(self, key):
        a, b, c = key
        out = intersect(a, c)
        value = self[key] = (
            _fibers(intersect(a, b), intersect(b, c), intersect(out, b), out),
            out, subgroup_sum(a, c))
        return value


def _walk_chains(d, i, cover_up, above, cover_rows, triples, steps, add):
    """Derive along the saturated chains from i, each distinct state once.

    Chains run in depth-first order over covers in label order.  Returns
    (results, conflicts): results[j] lists the distinct states at j in the
    order chains first reach them; conflicts[j] is the message of the first
    chain to j that forces a degree conflict.  `triples` is a
    _BlockTriples; `steps` maps (state, cover rows, H_i, H_v, H_next),
    everything a step reads, to its merged state or the DegreeConflict it
    raised, and is shared by the walks from every source.  `add` sums two
    degree coordinate tuples of d.ambient.
    """
    blocks = d.blocks
    h_i = blocks[i]
    results = {}
    conflicts = {}
    seen = set()

    def visit(v, state):
        h_v = blocks[v]
        for nxt in cover_up.get(v, ()):
            rows = cover_rows[(v, nxt)]
            step = (state, rows, h_i, h_v, blocks[nxt])
            new = steps.get(step)
            if new is None:
                fibers, h_out, reducer = triples[step[2:]]
                try:
                    new = _merge_state(_compose(state, rows, fibers, add),
                                       reducer, h_out)
                except DegreeConflict as exc:
                    new = exc
                steps[step] = new
            if isinstance(new, DegreeConflict):
                # every chain through this prefix fails the same way
                for j in above:
                    if d.skeleton.leq(nxt, j):
                        conflicts.setdefault(j, str(new))
                continue
            key = (nxt, new)
            if key not in seen:
                seen.add(key)
                results.setdefault(nxt, []).append(new)
                visit(nxt, new)

    for v in cover_up.get(i, ()):
        # a cover is the only chain to its top; later steps compose its
        # rows as given, so only the result at v is merged
        rows = cover_rows[(i, v)]
        try:
            results[v] = [_merge_state(rows, subgroup_sum(h_i, blocks[v]),
                                       d.cover_bimodules[(i, v)].middle)]
        except DegreeConflict as exc:
            conflicts[v] = str(exc)
        visit(v, rows)
    return results, conflicts


def _class_key(state, reducer):
    """Order-free form of a state as a class: the sorted rows, degrees
    reduced modulo `reducer` (BimoduleClass.sorted_key on rows)."""
    return tuple(sorted((exps, reducer.coset_key(coords)) for exps, coords in state))


def _derive(d, collect_issues=None):
    """Raw derived data for every comparable pair.

    Returns {pair: state}, each pair holding the state of its first
    chain: a tuple of (character exponents on H_i /\\ H_j, raw degree
    coordinates) rows.  With collect_issues given, conflicts are appended
    there (as (pair, message)) instead of raised, and the offending pair
    is left out of the result.  The block triples and the steps are
    memoized for the call (see _walk_chains) and freed with it.
    """
    add = _coordinate_sum(d.ambient)
    cover_rows = {c: _rows(cls.pairs) for c, cls in d.cover_bimodules.items()}
    cover_up = {}
    for x, y in d.skeleton.covers():
        cover_up.setdefault(x, []).append(y)
    above = {}
    for i, j in d.comparable_block_pairs():
        above.setdefault(i, []).append(j)
    triples, steps = _BlockTriples(), {}
    raw = {}
    for i, targets in above.items():
        # seen is per source; triples and steps are shared
        results, conflicts = _walk_chains(d, i, cover_up, targets, cover_rows,
                                          triples, steps, add)
        for j in targets:
            if j in conflicts:
                error = DegreeConflict(conflicts[j])
            else:
                states = results[j]
                # one state agrees with itself; several are compared as
                # classes, degrees reduced modulo H_i + H_j
                if len(states) == 1 or len({
                        _class_key(s, subgroup_sum(d.blocks[i], d.blocks[j]))
                        for s in states}) == 1:
                    raw[(i, j)] = states[0]
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
    out = {}
    for (i, j), state in _derive(d).items():
        if (i, j) in d.cover_bimodules:
            out[(i, j)] = d.cover_bimodules[(i, j)]
        else:
            out[(i, j)] = _class_of_rows(d.blocks[i], d.blocks[j], state)
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

    derived: the raw data of every pair without a conflict, in row form:
    {pair: ((character exponents on H_i /\\ H_j, raw degree coordinates),
    ...)}.  realize() reads the rows as they are and keeps them as
    `RealizedGrading.full_raw`; they are never encoded.
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
    # the realized poset has one vertex per character of each block
    vertices = sum(h.order for h in d.blocks.values())
    if vertices > abelian.ENUMERATION_BUDGET:
        raise BudgetExceeded(f"{vertices} realized vertices exceed the "
                             f"enumeration budget of {abelian.ENUMERATION_BUDGET}")

    # condition (2): every cover class embeds in the regular module
    for (i, j), cls in sorted(d.cover_bimodules.items(),
                              key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        report.checked_covers += 1
        if not realizable(cls):
            report.issues.append(ValidationIssue(
                "2", f"cover ({i!r}, {j!r})",
                "repeated character: not a submodule of the regular module"))
    # with no repeated character the walk composes the cover pairs as the
    # triple check would, so it has decided every triple whose upper step
    # is a cover (see the module docstring)
    walk_decides_covers = not report.issues

    # condition (3): derived data must be chain-independent ...
    conflicts = []
    raw = report.derived = _derive(d, conflicts)
    for pair, message in conflicts:
        report.issues.append(ValidationIssue(
            "3", f"pair ({pair[0]!r}, {pair[1]!r})", message))

    # ... and every two-step product must land exactly on the derived class;
    # a verdict depends only on its rows and blocks, so each distinct one is
    # decided once (see the module docstring)
    skel = d.skeleton
    blocks = d.blocks
    add = _coordinate_sum(d.ambient)
    triples, verdicts = _BlockTriples(), {}
    for i, j in d.comparable_block_pairs():
        between = skel.strictly_between(i, j)
        report.checked_triples += len(between)
        whole = raw.get((i, j))
        if whole is None:
            continue
        for k in between:
            if walk_decides_covers and (k, j) in d.cover_bimodules:
                continue
            left = raw.get((i, k))
            right = raw.get((k, j))
            if left is None or right is None:
                continue  # already reported as a conflict
            key = (left, right, whole, blocks[i], blocks[k], blocks[j])
            issue = verdicts.get(key, False)  # a verdict is a message or None
            if issue is False:
                fibers, h_ij, reducer = triples[key[3:]]
                issue = verdicts[key] = _triple_issue(
                    left, right, whole, fibers, add, h_ij, reducer)
            if issue is not None:
                report.issues.append(ValidationIssue(
                    "3", f"triple ({i!r}, {k!r}, {j!r})", issue))
    return report


def _triple_issue(left, right, whole, fibers, add, h_out, reducer):
    """Check [M_ij] == [M_ik] * [M_kj] with degree congruence mod H_i+H_j.

    left, right and whole are rows; fibers is the `bimodules._fibers`
    table from H_i /\\ H_k and H_k /\\ H_j through H_i /\\ H_k /\\ H_j to
    h_out, which is H_i /\\ H_j; add sums two degrees; reducer is
    H_i + H_j.

    Only degrees are compared: composing character sets is associative
    (restricting {eta : eta|T1 in S} to T2 gives {phi : phi|(T1 /\\ T2)
    in S|(T1 /\\ T2)}, as characters of T1 + T2 extend), so left composed
    with right has the character set of the chain through left's chain to
    k and right's to j, and whole exists only when the walk found every
    chain from i to j to give its class.
    """
    # a character produced twice keeps the degree of its last production
    produced = dict(_compose(left, right, fibers, add))
    have = dict(whole)
    for exps, deg in produced.items():
        if any(reducer.coset_key([a - b for a, b in zip(deg, have[exps])])):
            return (f"degree of {_character(h_out, exps)!r} differs between "
                    f"the two-step product and the derived class")
    return None


# ---------------------------------------------------------------------------
# realization


@dataclass(frozen=True)
class BasisVector:
    """One homogeneous basis element of the realized algebra.

    tag is ("diag", block, h) or ("cross", i, j, char_values, h, k), where
    the vector came from; only the tests read it.
    """

    element: IncidenceElement
    degree: object
    tag: tuple


class RealizedGrading:
    """A concrete graded incidence algebra produced from a datum.

    full_raw is the validation report's `derived`, in rows."""

    __slots__ = ("datum", "poset", "vertex_data", "basis", "full_raw", "_reading")

    def __init__(self, datum, poset, vertex_data, basis, full_raw):
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "vertex_data", vertex_data)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "full_raw", full_raw)
        object.__setattr__(self, "_reading", None)  # formed by the oracle

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
    orbit is first reached at the least h of its coset h + H_ij, any k.
    Those h are held on h_left per h_mid."""
    lefts = h_left._coset_leasts.get(h_mid)
    if lefts is None:
        lefts = h_left._coset_leasts[h_mid] = tuple(
            h for h in h_left.elements() if h_mid.least_coset_coords(h) == h)
    return [(h, k) for h in lefts for k in h_right.elements()]


def _realized_support(d, raw):
    """The total support of realize(d)'s basis, from the datum and its
    derived rows alone.  A block H_i gives |H_i| diagonal vectors of
    |H_i| entries each.  A derived row of (i, j) relates each character
    of H_j to the |H_i| / |H_ij| characters of H_i above its product,
    and is placed at |H_i| |H_j| / |H_ij| twist-orbit representatives:
    (|H_i| |H_j| / |H_ij|)^2 entries."""
    total = sum(h.order ** 2 for h in d.blocks.values())
    for (i, j), state in raw.items():
        h_i, h_j = d.blocks[i], d.blocks[j]
        total += len(state) * (h_i.order * h_j.order // intersect(h_i, h_j).order) ** 2
    return total


def realize(d):
    """Build the graded incidence algebra the datum parameterizes.

    Vertices are the dual groups of the blocks; a lower vertex relates to
    a higher one exactly when their restrictions to the joint
    intersection differ by a derived character.  The homogeneous basis
    consists of the block Fourier images (degree h) and, per derived
    character chi of degree g, the images of h*m_chi*k over twist-orbit
    representatives (h, k), with degree h + g + k.

    Every coefficient is a root of unity in one field, Q(zeta_N) with
    N = report.conductor, the lcm of the block exponents.  Each basis
    vector is written as its exponents, zeta_N^e at pair p for {p: e}
    (`IncidenceElement.from_roots`, which checks nothing: only related
    pairs are written); the oracle reads the exponents, and the
    `CycloNumber` coefficients are formed only where something reads
    `coeffs`, as JSON output does.  A basis of more than SUPPORT_BUDGET
    entries is refused with BudgetExceeded before anything is built.
    """
    report = validate_datum(d)
    if not report.valid:
        raise NotValid(report)
    raw = report.derived
    conductor = report.conductor
    support = _realized_support(d, raw)
    if support > SUPPORT_BUDGET:
        raise BudgetExceeded(f"the realized basis has {support} nonzero "
                             f"entries, over the support budget of {SUPPORT_BUDGET}")

    skel = d.skeleton
    verts = []
    vertex_data = {}
    labels = {}  # block: {eta.exps: label} in dual-group order
    for block in skel.elements:
        labels[block] = {}
        for eta in dual_group(d.blocks[block]):
            lab = labels[block][eta.exps] = vertex_label(block, eta)
            verts.append(lab)
            vertex_data[lab] = (block, eta)
    vert_index = {v: n for n, v in enumerate(verts)}

    # exponent[h][vertex] = N * eta(h) mod N for every vertex and every h
    # of its block (N is a multiple of every block exponent)
    exponent = {}
    for block in skel.elements:
        h_block = d.blocks[block]
        at = [exponent.setdefault(h.coords, {}) for h in h_block.elements()]
        for lab, row in zip(labels[block].values(),
                            exponent_rows(h_block, conductor)):
            for of_h, e in zip(at, row):
                of_h[lab] = e

    # eta_i relates to eta_j when eta_i restricts on H_ij to chi * eta_j:
    # the two-step rule against the diagonal, whose fibers table lists
    # those eta_i in dual-group order
    up = [{n} for n in range(len(verts))]
    cross_pairs = {}
    for (i, j), state in raw.items():
        h_ij = intersect(d.blocks[i], d.blocks[j])
        fibers = _fibers(h_ij, d.blocks[j], h_ij, d.blocks[i])
        for exps, _ in state:
            related = []
            for exps_j, vj in labels[j].items():
                for exps_i in fibers[exps, exps_j]:
                    vi = labels[i][exps_i]
                    up[vert_index[vi]].add(vert_index[vj])
                    related.append((vi, vj))
            cross_pairs[(i, j, exps)] = related

    # the relation is transitive by condition (3); the checking
    # constructor re-checks it defensively
    try:
        poset = Poset(verts, up)
    except ValueError:
        raise InternalTransitivityFailure(
            "derived relation failed transitivity")

    add = _coordinate_sum(d.ambient)  # h + g + k on coordinates
    basis = []
    for block in skel.elements:
        h_block = d.blocks[block]
        for h in h_block.elements():
            at = exponent[h.coords]
            roots = {(lab, lab): at[lab] for lab in labels[block].values()}
            basis.append(BasisVector(
                IncidenceElement.from_roots(poset, conductor, roots), h,
                ("diag", block, h.coords)))
    for (i, j), state in sorted(raw.items(),
                                key=lambda kv: (skel.index(kv[0][0]),
                                                skel.index(kv[0][1]))):
        h_i, h_j = d.blocks[i], d.blocks[j]
        h_ij = intersect(h_i, h_j)
        for exps, coords in state:
            related = cross_pairs[(i, j, exps)]
            values = _character(h_ij, exps).values
            for h, k in _twist_orbit_representatives(h_i, h_j, h_ij):
                left, right = exponent[h.coords], exponent[k.coords]
                roots = {(vi, vj): (left[vi] + right[vj]) % conductor
                         for vi, vj in related}
                basis.append(BasisVector(
                    IncidenceElement.from_roots(poset, conductor, roots),
                    _element(d.ambient, add(add(h.coords, coords), k.coords)),
                    ("cross", i, j, values, h.coords, k.coords)))
    return RealizedGrading(d, poset, vertex_data, basis, raw)


# ---------------------------------------------------------------------------
# grading isomorphism


def grading_iso(d, d_prime):
    """Search for (poset isomorphism alpha, characters mu_i) matching the
    two data cover-wise: M_ij isomorphic to mu_i * M'_{alpha i, alpha j} * mu_j.

    Returns (True, (alpha, mu)) with one witness, or (False, None).  The
    search runs per connected component of the skeletons' cover graphs:
    alpha maps components onto components and mu_i acts only on the covers
    at i, so two data are isomorphic exactly when their components can be
    paired off isomorphically.  Graded isomorphism of components is an
    equivalence relation, so each component of d, in label order, may take
    the first still-unmatched isomorphic component of d_prime: the greedy
    pairing is exact, and the witness is the union of the component
    witnesses.  Within a pair of components alpha runs over the block-
    preserving poset isomorphisms and mu is a backtrack over the
    components' vertices (see _component_iso).  The alpha and mu nodes of
    the whole call count against abelian.ENUMERATION_BUDGET.
    """
    if d.ambient != d_prime.ambient:
        raise AmbientMismatch("data over different ambient groups")
    if len(d.skeleton) != len(d_prime.skeleton):
        return False, None
    nodes = count(1)

    def node():
        if next(nodes) > abelian.ENUMERATION_BUDGET:
            raise BudgetExceeded(f"grading_iso search exceeds the enumeration "
                                 f"budget of {abelian.ENUMERATION_BUDGET} nodes")

    factors = {}  # (cover, image cover): _twist_factors, shared by all tests
    unmatched = [(c, _shape(d_prime, c))
                 for c in connected_components(d_prime.skeleton)]
    alpha, mu = {}, {}
    for comp in connected_components(d.skeleton):
        shape = _shape(d, comp)
        for n, (other, other_shape) in enumerate(unmatched):
            if other_shape != shape:
                continue
            witness = _component_iso(d, d_prime, comp, other, factors, node)
            if witness is not None:
                del unmatched[n]
                alpha.update(witness[0])
                mu.update(witness[1])
                break
        else:
            return False, None
    order = d.skeleton.elements
    return True, ({v: alpha[v] for v in order}, {v: mu[v] for v in order})


def _shape(d, comp):
    """What two isomorphic components share: their size, the multiset of
    their blocks and the multiset over covers of (blocks, degrees), which
    twists leave unchanged."""
    return (len(comp), Counter(d.blocks[v] for v in comp.elements),
            Counter((d.blocks[u], d.blocks[w],
                     tuple(sorted(g.coords for _, g in d.cover_bimodules[(u, w)].pairs)))
                    for u, w in comp.covers()))


def _twist_factors(m, target):
    """The characters f of the middle group with m isomorphic to target
    twisted by f, as exponent tuples: empty or a coset of the stabilizer
    of target.  f must carry some pair of target onto m's first pair, so
    only the quotients of those two characters are tried."""
    if len(m.pairs) != len(target.pairs):
        return frozenset()
    chi0, g0 = m.pairs[0]
    tried, found = set(), set()
    for chi, g in target.pairs:
        f = chi0 * chi.inverse()
        if g.coords == g0.coords and f.exps not in tried:
            tried.add(f.exps)
            if bimodule_iso(m, _twist_by(target, f))[0]:
                found.add(f.exps)
    return frozenset(found)


def _component_iso(d, d_prime, comp, other, factors, node):
    """A witness (alpha, mu) on the component comp of d's skeleton and the
    component other of d_prime's, or None.

    For each block-preserving isomorphism alpha the cover (u, w) matches
    exactly when restrict(mu_u) * restrict(mu_w) on its middle group lies
    in its factor set, so an empty set rejects alpha at once.  Otherwise
    mu is a backtrack over the vertices in label order, each cover checked
    at its later endpoint.
    """
    order = comp.elements
    position = {v: n for n, v in enumerate(order)}
    covers = comp.covers()
    covers_at = {v: [] for v in order}
    for u, w in covers:
        covers_at[max(u, w, key=position.__getitem__)].append(
            (u, w, d.cover_bimodules[(u, w)].middle))

    def constraint(x, y):
        return d.blocks[x] == d_prime.blocks[y]

    for alpha in poset_isomorphisms(comp, other, constraint):
        node()
        allowed = {}
        for u, w in covers:
            key = ((u, w), (alpha[u], alpha[w]))
            if key not in factors:
                factors[key] = _twist_factors(d.cover_bimodules[(u, w)],
                                              d_prime.cover_bimodules[key[1]])
            allowed[(u, w)] = factors[key]
        if not all(allowed.values()):
            continue
        assign = {}

        def search(depth):
            if depth == len(order):
                return True
            v = order[depth]
            for chi in dual_group(d.blocks[v]):
                node()
                assign[v] = chi
                if all((restrict(assign[u], mid) * restrict(assign[w], mid)).exps
                       in allowed[(u, w)] for u, w, mid in covers_at[v]):
                    if search(depth + 1):
                        return True
            del assign[v]
            return False

        if search(0):
            return alpha, assign
    return None
