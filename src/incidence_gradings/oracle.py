"""Brute-force verification inside the concrete algebra I(X).

Everything here distrusts the construction: the grading axioms are
re-checked by exact linear algebra, the two-step radical products are
decomposed with the character projectors pi_chi of the twist action, and
the link-count identity is recounted on the realized poset.  psi_i(h) and
psi_k(-h) are diagonal, so psi_i(h) w psi_k(-h) is w with each pair (x, y)
times L_x(h) R_y(h), the images' entries at x and y, and pi_chi(w) is w
times one multiplier per pair, the sum over h in H_ik of chi(h)^{-1}
L_x(h) R_y(h) (the 1/|H_ik| dropped).  A product of nonzero field
elements is nonzero: chi keeps w exactly when its multiplier is nonzero
at some pair of w's support, so no projection is formed.

Reading.  All three checks read an algebra through one `_Reading`, built
from its poset, basis and ambient group on first use and held in its
`_reading` slot: the pair index, the incomparable members, the conductor,
the shapes, the degrees, the preimages once formed, and the blocks.
Diagonal members (every pair (x, x)) are grouped by support, each support
one block's vertices, |dual H_i| = |H_i| of them; H_i is the subgroup
their degrees generate and psi_i(h) the member of degree h.  A cross
member is filed under the blocks of its first pair, and block i lies
below block j when some vertex of i lies below one of j.
`r.block_of_vertex` only names the blocks, one to one (InvalidElement).

Elements.  Members written as exponents (`IncidenceElement.from_roots`)
are built unchecked, so their support pairs are checked first: a pair
that is not comparable is the violation `incomparable-support`, and
nothing else is decided.  The full-rank step and the certificate read
each member's shape, one exponent of zeta_N per pair (`_components`): a
member over Q(zeta_M) gives its own exponents times N / M.  Only the
exact Q rank, the dim^2 loop and the radical-square products form
preimages in the group ring Z[x]/(x^N - 1), at one common integer scale:
zeta_M^e becomes x^(e * N / M), q * zeta_N^e (q rational) q times x^e,
any other coefficient its power-basis numerators.  Products then only
add exponents mod N, and zeta_N^a times an element shifts every exponent
by a.  A preimage is reduced to an integer vector in the power basis of
Q(zeta_N) only where a zero test or a row space takes it.  x -> zeta_N is
a ring homomorphism, so the reduced vector is exactly a positive multiple
of the element's; zero tests and spans do not see the multiple.

Full rank.  It is shown without elimination when there are as many
members as pairs and each member is one coefficient times one root of
unity per pair, zeta^(e_m(p)) at pair p (`_components`).  Members with
equal supports form a cell.  When distinct supports are pairwise
disjoint and each cell holds as many members as pairs, the basis matrix
is block diagonal with one square block per cell.  Read a cell at its
first pair p0: member m has the translation row
    t_m(p) = e_m(p) - e_m(p0)  (mod N),
and its row f_m is t_m when some translation row is zero, else t_m - t_0,
member 0 the cell's first.  The block is D F D' with D, D' diagonal and
invertible (the coefficients times zeta^(e_m(p0)), and 1 or
zeta^(t_0(p))) and F_mp = zeta^(f_m(p)).  When the n rows f_m are
distinct and closed under addition mod N they form a group G of order n,
each column p is a homomorphism f -> f(p) from G to Z/N, so zeta^(f(p))
is a character of G, and n distinct columns are all of G's characters.
F is then the character table of G, F F^* = n I by orthogonality, and
the block is invertible over Q(zeta_N); no prime is involved.  Any other
shape proves nothing, and independence and spanning are then decided
exactly: each element is closed under multiplication by zeta and ranks
are taken over Q, which needs no field division.
The two row choices decide alike.  If some t_z is zero and the rows
t_m - t_0 form a group G, then -t_0 = t_z - t_0 lies in G, so the t_m are
G itself; conversely, if the t_m form a group, t_0 lies in it and the
t_m - t_0 are the same group.  The two lists differ by one constant row,
which changes neither whether rows or columns are distinct (the columns
are the same characters of G), nor the columns `_row_key` picks, nor the
member m' that `_translations` finds for m (t_m' = t_m + delta either
way).  A realized cell's first member has the zero translation row, so
there the rows are its translation rows.  G is grown once, one coset at a
time (`_generators`), and the rows that started a coset are kept with the
cell for the certificate.

Certificate.  Write V_g for the span of the degree-g basis members and T_g
for the a in V_g with a * V_h inside V_(g+h) for every h.  Each T_g is a
subspace, and T is closed under products: for a in T_g and b in T_h, b
lies in V_h, so ab lies in V_(g+h), and ab * V_k = a(b * V_k) lies in
V_(g+h+k).  The basis B is graded exactly when B lies in T.
`verify_grading` shows that without forming all products: (a) B is a
basis (the count and the full-rank argument above); (b) 1 lies in V_0,
so 1 is in T_0; (c) for a set S of members read off the full-rank cells
(`_generating_set`), s * v lies in V_(deg s + deg v) for every s in S and v
in B, so S lies in T (|S| * dim products instead of dim^2); (d) starting
from S, each element of T formed so far (1, and s * v for a member v already
reached) is split into one multiple of a member per support component, and
when exactly one of those members is not yet reached, it is: the others are
in T, so its multiple is too.  Every member must be reached.
Membership in V_g needs no zeta-closed space when no cell holds two
members of degree g (cells have disjoint supports) and each member is one
coefficient times one root of unity per pair: V_g is then the direct sum
of the lines they span, and w lies in it exactly when w vanishes off their
supports and, on each member's support, w_p * zeta^(-e_p) is the same
number at every pair p, e_p the member's exponent at p.  s * v is formed
from the shapes and grouped per pair as it is formed, {pair: {exponent:
count}}, counting the paths x <= z <= y whose exponents sum to it
(`_shape_product`).  c_s * c_v is left out: a nonzero factor of the whole
product changes neither whether w vanishes off the supports nor whether it
is one multiple of a member on each.  So on each member's support that w
touches, every pair must hold one term, the member's exponent shifted by
one common a, with one common count, or every pair must be zero.  In a
realized product the terms of one pair either share an exponent and
merge, or form a nontrivial character sum over a coset, which vanishes
(as on some realized 4-chains over Z/2 x Z/2, where a whole product
does): a pair whose terms reduce to zero counts as zero, and a member
whose whole support is zero is left out of the split.  A support zero at
only some of its pairs, or a pair whose several terms do not cancel,
makes the certificate give up.
A diagonal seed s, every pair of it (x, x) with exponent e_s(x), needs no
product.  s * m, m a member of a cell, holds at each pair p = (x_p, y_p)
of m whose first vertex s covers one path, x_p <= x_p <= y_p, with count
1: m with p shifted by e_s(x_p).  If s covers only some of the cell's
first vertices, the product misses pairs of the one support it touches.
If it covers them all, then in the rows of "Full rank" it is a multiple
of the member m' of the cell with f_m' = f_m + delta, where
delta(p) = e_s(x_p) - e_s(x_p0); it is a multiple of no other member on
that support, since the rows are distinct.  Such an m' exists exactly
when delta lies in the group G of the cell's rows, which is closed under
addition.  So the split of s * m is [m'] when s covers the cell's first
vertices, delta is a row and deg m' = deg s + deg m, and otherwise the
certificate gives up, as the split of the product would
(`_translations`).  delta is looked up once per seed and cell, and each
m' through a few columns on which the rows differ (`_row_key`): about
n * |key| steps for a cell of n members, where the products take n^2.
Another shape of basis, or any failed step, proves nothing, and the dim^2
loop decides each product's membership over Q in the zeta-closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import gcd, lcm

from .abelian import _coordinate_sum, canonicalize, intersect, subgroup_sum
from .bimodules import BimoduleClass
from .characters import dual_group, exponent_rows
from .cyclo import _root_exponents, euler_phi
from .errors import DegreeConflict, InvalidElement, NoIntermediateBlock
from .incidence import RootElement
from .posets import link_counts
from .rowspan import RationalRowSpace


# ---------------------------------------------------------------------------
# group-ring preimages and flattening to integer vectors


def _conductor_of(elements):
    return lcm(1, *(elem.conductor if isinstance(elem, RootElement) else
                    lcm(1, *(c.conductor for c in elem.coeffs.values()))
                    for elem in elements))


def _ring_preimages(elems, conductor):
    """Each element as a sparse {(x, y, exponent): int}, its preimage in
    Z[x]/(x^N - 1) at one common scale that clears every denominator
    (module docstring, "Elements"): a coefficient q * zeta_N^e, whose
    numerators over their gcd are the power-basis row of +-zeta_N^e,
    becomes q * scale * x^e, one of no such form its power-basis
    numerators.  A product formed here and reduced (`_reduce`) is exactly
    scale^2 times the product of the elements."""
    exponent_of, _ = _root_exponents(conductor)
    lifted = [None if isinstance(elem, RootElement)
              else [(pair, c.lift(conductor)) for pair, c in elem.coeffs.items()]
              for elem in elems]
    scale = reduce(lcm, (c.den for terms in lifted if terms for _, c in terms), 1)
    out = []
    for elem, terms in zip(elems, lifted):
        if terms is None:
            step = conductor // elem.conductor
            out.append({(x, y, e * step % conductor): scale
                        for (x, y), e in elem.roots.items()})
            continue
        pre = {}
        for (x, y), c in terms:
            factor = scale // c.den
            g = gcd(*c.nums)
            row = tuple([num // g for num in c.nums])
            e = exponent_of.get(row)
            if e is None:
                e = exponent_of.get(tuple([-num for num in row]))
                g = -g
            if e is not None:
                pre[(x, y, e)] = g * factor
            else:
                for p, num in enumerate(c.nums):
                    if num:
                        pre[(x, y, p)] = num * factor
        out.append(pre)
    return out


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


def _reduced(pre, conductor):
    """The preimage of pre's power-basis numerators: each (pair, exponent)
    term reduced through its `_power_table` row, so a sum of products
    shrinks to at most phi(N) terms x^q, q < phi(N), per pair (x^q maps to
    zeta_N^q); zero terms are dropped, so a zero element reduces to {}."""
    _, rows = _root_exponents(conductor)
    out = {}
    for (x, y, e), c in pre.items():
        for q, t in rows[e]:
            key = (x, y, q)
            out[key] = out.get(key, 0) + c * t
    return {key: v for key, v in out.items() if v}


def _reduce(elem, pair_index, conductor):
    """The integer vector of a group-ring element: `_reduced`, one block of
    phi(N) power-basis columns per comparable pair."""
    phi = euler_phi(conductor)
    return {pair_index[(x, y)] * phi + q: v
            for (x, y, q), v in _reduced(elem, conductor).items()}


def _zeta_multiples(pre, pair_index, conductor):
    """The integer vectors of zeta^a times the element, for a < phi(N):
    its preimage with every exponent shifted by a, reduced."""
    for a in range(euler_phi(conductor)):
        yield _reduce({(x, y, (e + a) % conductor): c
                       for (x, y, e), c in pre.items()}, pair_index, conductor)


def _zeta_closed_space(preimages, pair_index, conductor):
    """Q-row space of all zeta-power multiples; its rank is phi(N) times
    the rank over the cyclotomic field."""
    space = RationalRowSpace()
    for pre in preimages:
        for vec in _zeta_multiples(pre, pair_index, conductor):
            space.add(vec)
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


class _Degrees:
    """The basis degrees, numbered by their coordinate tuples in `ambient`:
    `ids[n]` numbers the degree of basis[n], and `plus(a, b)` is the number
    of degree a + degree b, or None when no basis element has it.  Each sum
    is formed once, on the coordinates (`abelian._coordinate_sum`)."""

    def __init__(self, basis, ambient):
        self.number = {}
        self.ids = [self.number.setdefault(b.degree.coords, len(self.number))
                    for b in basis]
        self.degrees = list(self.number)
        self._add = _coordinate_sum(ambient)
        self._sums = {}

    def plus(self, a, b):
        if (a, b) not in self._sums:
            self._sums[a, b] = self.number.get(self._add(self.degrees[a], self.degrees[b]))
        return self._sums[a, b]


class _Reading:
    """An algebra as the checks read it (module docstring, "Reading")."""

    def __init__(self, poset, basis, ambient):
        self.poset, self.basis, self.ambient = poset, basis, ambient
        self.pair_index = {p: n for n, p in enumerate(poset.comparable_pairs())}
        self.elems = [b.element for b in basis]
        # from_roots checks nothing; every other element was checked when built
        self.incomparable = [n for n, elem in enumerate(self.elems) if isinstance(
            elem, RootElement) and not elem.roots.keys() <= self.pair_index.keys()]
        self.conductor = _conductor_of(self.elems)
        self.degrees = _Degrees(basis, ambient)
        self.shape = _components(self.elems, self.conductor)
        self._preimages, self._names = {}, None

    def preimages(self, conductor):
        if conductor not in self._preimages:
            self._preimages[conductor] = _ring_preimages(self.elems, conductor)
        return self._preimages[conductor]

    @cached_property
    def blocks(self):
        """(vertices, images, order, cross): per block, keyed by its first
        vertex's index, its vertices and {h: psi_i(h)}; the pairs (i, j), i
        below j; the cross members per (i, j)."""
        diagonal, firsts, at, vertices, images = {}, [], {}, {}, {}
        loops, index = {(x, x) for x in self.poset.elements}, self.poset.index
        for m, elem in enumerate(self.elems):
            pairs = elem.roots if isinstance(elem, RootElement) else elem.coeffs
            first = next(iter(pairs), None)
            if first in loops and (support := frozenset(pairs)) <= loops:
                diagonal.setdefault(support, []).append(m)
            elif first is not None:
                firsts.append((m, first))
        for support in sorted(diagonal, key=len, reverse=True):
            held = {at.get(x) for x, _ in support}
            n = held.pop() if len(held) == 1 else None
            if n is None:  # a new block; a support inside one (a zero entry) joins it
                vs = sorted((x for x, _ in support), key=index)
                n = index(vs[0])
                at.update(dict.fromkeys(vs, n))
                vertices[n], images[n] = vs, {}
            images[n].update((self.basis[m].degree.coords, m) for m in diagonal[support])
        cross = {}
        for m, (x, y) in firsts:
            cross.setdefault((at.get(x), at.get(y)), []).append(m)
        return vertices, images, {(at[x], at[y]) for x, y in self.pair_index
                                  if x in at and y in at and at[x] != at[y]}, cross

    @cached_property
    def groups(self):
        """H_i per block: the subgroup its diagonal members' degrees generate."""
        return {n: canonicalize([self.basis[m].degree for m in image.values()], self.ambient)
                for n, image in self.blocks[1].items()}

    def named(self, r):
        """{label: block}, read once through `r.block_of_vertex`."""
        if self._names is None:
            at = {x: n for n, vs in self.blocks[0].items() for x in vs}
            pairs = {(r.block_of_vertex(x), at.get(x)) for x in self.poset.elements}
            names = dict(pairs)
            if len(pairs) != len(self.blocks[0]) or set(names.values()) != self.blocks[0].keys():
                raise InvalidElement("the labels do not name the blocks one to one")
            self._names = names
        return self._names


def _reading(r):
    if r._reading is None:
        object.__setattr__(r, "_reading", _Reading(r.poset, r.basis, r.ambient))
    return r._reading


def _shape_product(a, b_by_first, conductor):
    """The product of members a and b from their shapes (`_components`),
    without the factor c_a * c_b: {pair: {exponent: count}}.  b_by_first
    lists b's (y, exponent) per first vertex z."""
    out = {}
    for (x, z), ea in a.items():
        for y, eb in b_by_first.get(z, ()):
            terms = out.setdefault((x, y), {})
            e = (ea + eb) % conductor
            terms[e] = terms.get(e, 0) + 1
    return out


def _split(w, owner, shape, conductor):
    """The members whose nonzero multiples sum to w, a `_shape_product` (or
    the identity, {(x, x): {0: 1}}), or None when that is not shown (module
    docstring, "Certificate"): w must vanish off the supports of the
    members `owner` lists (per pair, the member whose support holds it),
    and on each support it touches be zero or one member's shape times one
    monomial c * x^a, each pair p the single term {e_p + a: c}.  A pair
    whose terms reduce to zero (`_reduced`) is zero, and a member zero at
    every pair is left out."""
    members = {owner[pair] for pair in w if pair in owner}
    off = {pair: terms for pair, terms in w.items() if pair not in owner}
    if off and _reduced({(x, y, e): c for (x, y), terms in off.items()
                         for e, c in terms.items()}, conductor):
        return None  # nonzero off the supports
    out = []
    for m in members:
        keys = set()  # None stands for a zero pair
        for pair, e in shape[m].items():
            terms = w.get(pair, ())
            if len(terms) == 1:
                (ew, cw), = terms.items()
                keys.add((cw, (ew - e) % conductor))
            elif terms and _reduced({(*pair, ew): cw for ew, cw in terms.items()},
                                    conductor):
                return None  # several terms that do not cancel
            else:
                keys.add(None)
        if len(keys) != 1:
            return None
        if keys != {None}:
            out.append(m)
    return out


def _all_reached(n, seeds, splits):
    """Whether every member is reached: from the seeds, a split (right,
    members) of an element s * right of T, right reached (or None for 1),
    reaches its one member that is still unreached."""
    reached = set(seeds)
    grew = True
    while grew:
        grew = False
        for right, members in splits:
            if right is None or right in reached:
                left = [m for m in members if m not in reached]
                if len(left) == 1:
                    reached.add(left[0])
                    grew = True
    return len(reached) == n


def _components(elems, conductor):
    """Each member's shape for `_full_rank` and the certificate, or None
    when some member is not one coefficient times one root of unity per
    pair.  shape[m] maps each pair of member m to its exponent mod N: a
    `RootElement` over Q(zeta_M) gives its `roots` times N / M, any other
    member its preimage (`_ring_preimages`)."""
    planted = [elem for elem in elems if not isinstance(elem, RootElement)]
    pres = iter(_ring_preimages(planted, conductor))
    shape = []
    for elem in elems:
        if isinstance(elem, RootElement):
            step = conductor // elem.conductor
            shape.append(elem.roots if step == 1 else
                         {pair: e * step for pair, e in elem.roots.items()})
            continue
        exps, coeffs = {}, set()
        for (x, y, e), c in next(pres).items():
            if (x, y) in exps:
                return None
            exps[(x, y)] = e
            coeffs.add(c)
        if len(coeffs) > 1:
            return None
        shape.append(exps)
    return shape


def _generators(rows, conductor):
    """The rows that started a new coset as the group of the distinct rows
    grew from zero one coset at a time, or None when it outgrew them: the
    rows are no group mod N.  Tuples are built from lists, which kept 0.5 MB
    off the peak RSS of 30 verify-corpus passes (2-vCPU Xeon, Python 3.11.7)."""
    zero = tuple([0] * len(rows[0]))
    group, known, started = [zero], {zero}, []
    for row in rows:
        if row in known:
            continue
        started.append(row)
        step, base = row, list(group)
        while step not in known:
            for g in base:
                new = tuple([(a + b) % conductor for a, b in zip(g, step)])
                group.append(new)
                known.add(new)
            if len(group) > len(rows):
                return None
            step = tuple([(a + b) % conductor for a, b in zip(step, row)])
    return started


def _full_rank(shape, conductor):
    """The cells, when the members, one {pair: exponent} each
    (`_components`), are shown to be a basis by the character-table
    argument of the module docstring ("Full rank"); None proves nothing.  A
    cell is (members, cols, rows, started): the members with one support,
    its pairs in the first member's order, each member's row f_m over cols,
    and the rows that started a coset as `_generators` grew their group,
    None when no translation row is zero.  The zero algebra has no cells.
    The caller has checked that there are as many members as pairs."""
    cell_of, cells = {}, []  # each pair's cell; each cell's members
    for m, exps in enumerate(shape):
        c = cell_of.get(next(iter(exps), None))
        if c is None:
            # a new support: none of its pairs may lie in another one
            c = len(cells)
            if any(cell_of.setdefault(p, c) != c for p in exps):
                return None
            cells.append([m])
        elif exps.keys() == shape[cells[c][0]].keys():
            cells[c].append(m)
        else:
            return None
    out = []
    for members in cells:
        base = shape[members[0]]
        if len(members) != len(base):
            return None
        cols = list(base)
        rows = []
        for m in members:
            exps = shape[m]
            e0 = exps[cols[0]]
            rows.append(tuple([(exps[p] - e0) % conductor for p in cols]))
        anchored = tuple([0] * len(cols)) in rows
        if not anchored:
            first = rows[0]
            rows = [tuple([(a - b) % conductor for a, b in zip(row, first)])
                    for row in rows]
        if len(set(rows)) != len(rows) or len(set(zip(*rows))) != len(rows):
            return None
        started = _generators(rows, conductor)
        if started is None:
            return None
        out.append((members, cols, rows, started if anchored else None))
    return out


def _generating_set(shape, cells, conductor):
    """S for the certificate, read off the cells of `_full_rank`: per
    diagonal cell the members whose translation rows started a coset as
    `_full_rank` grew their group (its one member for a trivial group, none
    when no translation row is zero); per other cell its first member.
    shape and conductor are not read.  The verdict does not depend on this
    choice, only whether it gets one.  The cover cells alone would not do:
    through a trivial middle block a product of cover vectors is a sum
    over every character of the outer pair."""
    seeds = []
    for members, cols, rows, started in cells:
        if any(x != y for x, y in cols):
            seeds.append(members[0])
        elif started is not None:
            started = set(started) or {rows[0]}
            seeds.extend(m for m, row in zip(members, rows) if row in started)
    return seeds


def _row_key(rows):
    """(columns, keys, position): columns on which no two of the distinct
    rows agree, each kept only where it tells apart rows that the ones
    before it do not; each row's values on them as a tuple, its key; and
    {key: row number}."""
    cols, keys, distinct = [], [()] * len(rows), 1
    for c in range(len(rows[0])):
        if distinct == len(rows):
            break
        trial = [key + (row[c],) for key, row in zip(keys, rows)]
        n = len(set(trial))
        if n > distinct:
            cols, keys, distinct = cols + [c], trial, n
    return cols, keys, {key: n for n, key in enumerate(keys)}


def _translations(at, ds, cell, key, degrees, conductor):
    """The splits (m, [m']) of s * m for every member m of a cell that the
    diagonal seed s touches, or None when that is not shown; the same
    splits `_split` finds in `_shape_product(s, m)` (module docstring,
    "Certificate").  at maps each vertex x of s to its exponent at (x, x),
    ds numbers the seed's degree, and key is the cell's `_row_key`."""
    members, cols, rows, _ = cell
    key_cols, keys, position = key
    try:
        e0 = at[cols[0][0]]
        delta = tuple([(at[x] - e0) % conductor for x, _ in cols])
    except KeyError:
        return None  # s covers only some of the cell's first vertices
    shift = [delta[c] for c in key_cols]
    d = position.get(tuple(shift))
    if d is None or rows[d] != delta:
        return None  # delta is no row: not in the cell's group
    ids, out = degrees.ids, []
    for m, k in zip(members, keys):
        t = members[position[tuple([(a + b) % conductor
                                    for a, b in zip(k, shift)])]]
        if degrees.plus(ds, ids[m]) != ids[t]:
            return None
        out.append((m, [t]))
    return out


def _certified(r, shape, cells, degrees, conductor):
    """True when the certificate of the module docstring shows that the
    basis (already known to be one) is graded; False proves nothing.  A
    diagonal seed's products are translations (`_translations`); another
    seed's, with the members of the cells whose first vertices it ends
    at, are formed from the shapes (`_shape_product`) and split (`_split`)."""
    ids = degrees.ids
    owners = {}  # per degree: {pair: its member of that degree}
    for members, cols, _, _ in cells:
        for m in members:
            owner = owners.setdefault(ids[m], {})
            if cols[0] in owner:
                return False  # a multiple test cannot decide a span of two
            for pair in cols:
                owner[pair] = m
    one = _split({(x, x): {0: 1} for x in r.poset.elements},
                 owners.get(degrees.number.get(r.ambient.zero().coords), {}),
                 shape, conductor)
    if one is None:
        return False
    splits = [(None, one)]
    seeds = _generating_set(shape, cells, conductor)
    diagonal, ending = {}, {}  # per vertex: diagonal seeds at it, others ending at it
    at = {}  # per diagonal seed: {vertex: exponent}
    for s in seeds:
        if all(x == y for x, y in shape[s]):
            at[s] = {x: e for (x, _), e in shape[s].items()}
            for x in at[s]:
                diagonal.setdefault(x, []).append(s)
        else:
            for z in {z for _, z in shape[s]}:
                ending.setdefault(z, []).append(s)
    for cell in cells:
        members, cols, rows, _ = cell
        firsts = {x for x, _ in cols}
        touching = {s for x in firsts for s in diagonal.get(x, ())}
        if touching:
            key = _row_key(rows)
            for s in touching:
                translated = _translations(at[s], ids[s], cell, key, degrees,
                                           conductor)
                if translated is None:
                    return False
                splits.extend(translated)
        crossing = {s for x in firsts for s in ending.get(x, ())}
        if not crossing:
            continue
        for iv in members:
            by_first = {}
            for (z, y), e in shape[iv].items():
                by_first.setdefault(z, []).append((y, e))
            for s in crossing:
                w = _shape_product(shape[s], by_first, conductor)
                target = degrees.plus(ids[s], ids[iv])
                split = _split(w, owners.get(target, {}), shape, conductor)
                if split is None:
                    return False
                splits.append((iv, split))
    return _all_reached(len(shape), seeds, splits)


def verify_grading(r):
    """Re-check the grading axioms from scratch on a realized algebra.

    (a) the stored homogeneous basis is a basis of I(X): correct count
        and full rank over the cyclotomic field;
    (b) for every ordered pair of basis elements the product lies in the
        span of the basis elements of the summed degree;
    (c) the identity is homogeneous of degree 0.

    The certificate of the module docstring is tried first; when it holds,
    every product of (b) is certified without being formed.  Otherwise all
    of them are formed and checked.  Either way `checked_products` counts
    the certified products, len(basis)^2.
    """
    report = VerificationReport()
    rd = _reading(r)
    pair_index = rd.pair_index
    report.dimension = dim = len(pair_index)
    report.basis_size = len(r.basis)
    for idx in rd.incomparable:
        report.flag("incomparable-support", f"basis[{idx}]",
                    "support pair that is not comparable in the poset")
    if report.violations:
        return report  # members outside I(X): nothing more is decided
    conductor, degrees, shape = rd.conductor, rd.degrees, rd.shape
    phi = euler_phi(conductor)
    cells = (_full_rank(shape, conductor)
             if len(r.basis) == dim and shape is not None else None)
    full_rank = cells is not None
    if full_rank and _certified(r, shape, cells, degrees, conductor):
        report.checked_products = dim * dim
        return report

    preimages = rd.preimages(conductor)
    if len(r.basis) != dim:
        report.flag("basis-size", "basis",
                    f"{len(r.basis)} basis elements for dimension {dim}")
    if not full_rank:
        # full rank not shown: decide independence and spanning exactly
        space = RationalRowSpace()
        for idx, pre in enumerate(preimages):
            added = sum(1 for vec in _zeta_multiples(pre, pair_index, conductor)
                        if space.add(vec))
            if added != phi:
                report.flag("dependent-basis", f"basis[{idx}]",
                            "element lies in the span of its predecessors")
        if space.rank != phi * dim:
            report.flag("not-spanning", "basis",
                        f"rank {space.rank} over Q, expected {phi * dim}")

    degree_spaces = {}

    def span_of_degree(d):
        # d numbers a degree, or is None for one no member has
        if d not in degree_spaces:
            degree_spaces[d] = _zeta_closed_space(
                [pre for pre, e in zip(preimages, ids) if e == d], pair_index, conductor)
        return degree_spaces[d]

    ids = degrees.ids
    ends = [{z for _, z, _ in pre} for pre in preimages]
    indexed = [_by_first(pre) for pre in preimages]
    for iu in range(len(r.basis)):
        for iv in range(len(r.basis)):
            report.checked_products += 1
            if ends[iu].isdisjoint(indexed[iv]):
                continue  # zero: no pair of u ends where one of v starts
            # scale^2 times the flattened u * v; membership ignores the scale
            w = _reduce(_ring_product(preimages[iu], indexed[iv], conductor),
                        pair_index, conductor)
            if not w:
                continue
            target = degrees.plus(ids[iu], ids[iv])
            if target is None:
                g = r.basis[iu].degree + r.basis[iv].degree
                report.flag("product-escape", f"basis[{iu}] * basis[{iv}]",
                            f"nonzero product but no component of degree "
                            f"{g.coords}")
                continue
            if not span_of_degree(target).contains(w):
                report.flag("product-escape", f"basis[{iu}] * basis[{iv}]",
                            "product escapes the component of the summed degree")

    # the identity's preimage is x^0 on every diagonal pair; a degree with
    # no members spans 0, the identity of the zero algebra
    one = _reduce({(x, x, 0): 1 for x in r.poset.elements}, pair_index, conductor)
    if not span_of_degree(degrees.number.get(r.ambient.zero().coords)).contains(one):
        report.flag("identity-degree", "identity",
                    "identity element is not homogeneous of degree 0")
    return report


# ---------------------------------------------------------------------------
# radical-square decomposition by character projectors


def _isotypic_degrees(r, i, k):
    """Per character chi of H_ik, the degrees deg u + deg v of the nonzero
    two-step products w = u * v of M_ij * M_jk that pi_chi keeps, in
    (middle, u, v) order, as coordinate tuples.  The blocks, H_i, psi_i and
    M_ij are the reading's (module docstring, "Reading"); no tag is read.
    The chi-multiplier at a pair (x, y) is formed once per call; pi_chi
    keeps w when it is nonzero at some pair of w's support."""
    rd = _reading(r)
    vertices, images, order, cross = rd.blocks
    a, c = rd.named(r).get(i), rd.named(r).get(k)
    if a is None or c is None or (a, c) not in order:
        raise NoIntermediateBlock(f"blocks {i!r} and {k!r} are not comparable")
    mids = [j for j in sorted(vertices) if (a, j) in order and (j, c) in order]
    if not mids:
        raise NoIntermediateBlock(f"no block strictly between {i!r} and {k!r}")
    h_ik = intersect(rd.groups[a], rd.groups[c])
    elements = list(h_ik.elements())
    wanted = [(a, i, h.coords) for h in elements] + [(c, k, (-h).coords) for h in elements]
    for n, label, h in wanted:
        if h not in images[n]:
            raise InvalidElement(f"no diagonal image of {h} in block {label!r}")
    if rd.incomparable:
        raise InvalidElement("a basis member has a support pair that is not "
                             "comparable in the poset")
    conductor = lcm(rd.conductor, h_ik.exponent())
    pres = rd.preimages(conductor)
    entries = []  # per diagonal image, {vertex: [(exponent, coefficient)]}
    for n, _, h in wanted:
        at = {}
        for (x, _, e), coeff in pres[images[n][h]].items():
            at.setdefault(x, []).append((e, coeff))
        entries.append(at)
    lefts, rights = entries[:len(elements)], entries[len(elements):]
    rows = exponent_rows(h_ik, conductor)

    def kept_at(x, y):
        # the characters whose multiplier at (x, y) is nonzero; a longer
        # sum than one monomial is reduced, which is its zero test
        rho = [[((el + er) % conductor, cl * cr)
                for el, cl in left.get(x, ()) for er, cr in right.get(y, ())]
               for left, right in zip(lefts, rights)]
        found = []
        for n, row in enumerate(rows):
            acc = {}
            for terms, e_chi in zip(rho, row):
                for e, coeff in terms:
                    key = (e - e_chi) % conductor
                    acc[key] = acc.get(key, 0) + coeff
            terms = {(x, y, e): coeff for e, coeff in acc.items() if coeff}
            if len(terms) == 1 or _reduced(terms, conductor):
                found.append(n)
        return found

    kept = {}  # per pair, formed once per call
    chars = dual_group(h_ik)
    degrees = {chi: [] for chi in chars}
    add = _coordinate_sum(r.ambient)
    coords, ids = rd.degrees.degrees, rd.degrees.ids
    for j in mids:
        vs = [(v, _by_first(pres[v])) for v in cross.get((j, c), ())]
        for u in cross.get((a, j), ()):
            for v, v_pre in vs:
                w = _ring_product(pres[u], v_pre, conductor)
                support = {(x, y) for x, y, _ in w}
                if len(support) < len(w) or 0 in w.values():
                    # only a pair of one nonzero monomial is nonzero as it stands
                    support = {(x, y) for x, y, _ in _reduced(w, conductor)}
                found = set()
                for pair in support:
                    if pair not in kept:
                        kept[pair] = kept_at(*pair)
                    found.update(kept[pair])
                deg = add(coords[ids[u]], coords[ids[v]])
                for n in found:
                    degrees[chars[n]].append(deg)
    return degrees


def radical_square_component(r, i, k):
    """Decompose the span of the two-step products M_ij * M_jk in I(X).

    Each character chi whose projector keeps some product contributes
    (chi, degree), the degree read off the products it keeps
    (`_isotypic_degrees`), whose coordinates must share one coset key of
    H_i + H_k; the first becomes the class's degree.  A malformed basis
    raises a library error: NoIntermediateBlock when no block lies between
    i and k, InvalidElement when the labels do not name the blocks or a
    diagonal image or I(X) membership is missing, DegreeConflict for
    degrees in several cosets."""
    found = _isotypic_degrees(r, i, k)
    rd = _reading(r)
    h_i, h_k = (rd.groups[rd.named(r)[label]] for label in (i, k))
    coset = subgroup_sum(h_i, h_k)
    pairs = []
    for chi, degs in found.items():
        if not degs:
            continue
        if len({coset.coset_key(deg) for deg in set(degs)}) > 1:
            raise DegreeConflict(f"character {chi!r} of the products between "
                                 f"{i!r} and {k!r} has degrees in several cosets")
        pairs.append((chi, r.ambient.element(degs[0])))
    return BimoduleClass(h_i, h_k, pairs)


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
    for every pair of blocks i below j and every vertex choice, on the
    reading's blocks and order (module docstring, "Reading"); |H_i| is
    |dual H_i|, the number of vertices of block i."""
    report = LinkEquationReport()
    rd = _reading(r)
    vertices, _, order, _ = rd.blocks
    names = rd.named(r)
    counts = link_counts(r.poset, {label: vertices[n] for label, n in names.items()})
    label = {n: name for name, n in names.items()}
    for a, b in sorted(order):
        i, j = label[a], label[b]
        report.checked_pairs += 1
        total = counts.block_pairs[(i, j)]
        for v in vertices[a]:
            if len(vertices[a]) * counts.element_to_block[(v, j)] != total:
                report.violations.append(
                    (i, j, v, "left link count breaks the identity"))
        for v in vertices[b]:
            if len(vertices[b]) * counts.block_to_element[(i, v)] != total:
                report.violations.append(
                    (i, j, v, "right link count breaks the identity"))
    return report
