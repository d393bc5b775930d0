"""Shared builders for datum-level and acceptance tests."""

import itertools
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from math import lcm

from hypothesis import strategies as st

from incidence_gradings.abelian import (
    AbelianGroup,
    all_subgroups,
    canonicalize,
    full_subgroup,
    intersect,
    subgroup_sum,
    trivial_subgroup,
)
from incidence_gradings.bimodules import BimoduleClass, bimodule_iso
from incidence_gradings.characters import (
    _carried,
    dual_group,
    extension_fiber,
    restrict,
    trivial_character,
)
from incidence_gradings.cyclo import CycloNumber, _power_table, euler_phi, root_of_unity
from incidence_gradings.datum import (
    BasisVector,
    GradingDatum,
    RealizedGrading,
    vertex_label,
)
from incidence_gradings.errors import ChainInconsistency, DegreeConflict
from incidence_gradings.incidence import IncidenceElement
from incidence_gradings.jsonio import _expect, _expect_object, _fail, decode_cyclo
from incidence_gradings.oracle import VerificationReport, _conductor_of
from incidence_gradings.posets import chain_poset, poset_from_relation
from incidence_gradings.rowspan import RationalRowSpace


# ---------------------------------------------------------------------------
# reference elements of I(X)


def matrix_unit(poset, x, y):
    """The basis element e_xy (requires x <= y)."""
    return IncidenceElement(poset, {(x, y): CycloNumber.from_rational(1)})


def identity_element(poset):
    """The two-sided unit: sum of all e_xx."""
    return IncidenceElement(poset,
                            {(x, x): CycloNumber.from_rational(1) for x in poset.elements})


def incidence_dimension(poset):
    """dim I(X): the number of comparable pairs."""
    return len(poset.comparable_pairs())


def decode_incidence_element(data, poset, path="incidence"):
    """The inverse of `jsonio.encode_incidence_element`, with its
    MalformedInput paths."""
    _expect(data, list, path)
    coeffs = {}
    for n, entry in enumerate(data):
        _expect_object(entry, ("from", "to", "coeff"), f"{path}[{n}]")
        x, y = entry.get("from"), entry.get("to")
        c = decode_cyclo(entry.get("coeff", {}), f"{path}[{n}].coeff")
        try:
            coeffs[(x, y)] = c
        except TypeError:
            _fail(f"{path}[{n}]", "unhashable pair")
    try:
        return IncidenceElement(poset, coeffs)
    except (ValueError, KeyError) as exc:
        _fail(path, str(exc))


# the ambient groups every sweep runs over
SWEEP_GROUPS = [
    AbelianGroup(0, [2]),
    AbelianGroup(0, [3]),
    AbelianGroup(0, [4]),
    AbelianGroup(0, [2, 2]),
    AbelianGroup(0, [6]),
    AbelianGroup(0, [8]),
    AbelianGroup(0, [2, 4]),
]

# the groups the character differential tests run over: the sweep groups,
# three with a larger exponent or rank, and one with free rank
CHARACTER_GROUPS = SWEEP_GROUPS + [
    AbelianGroup(0, [12]),
    AbelianGroup(0, [2, 6]),
    AbelianGroup(0, [4, 4]),
    AbelianGroup(1, [2, 4]),
]


def finite_subgroups(ambient):
    """Every finite subgroup: those of the torsion part when the ambient
    group has free rank."""
    if ambient.is_finite:
        return all_subgroups(ambient)
    pad = (0,) * ambient.free_rank
    return [canonicalize([ambient.element(pad + g.coords) for g in s.generators],
                         ambient)
            for s in all_subgroups(AbelianGroup(0, ambient.torsion_factors))]


# the skeleton shapes of the acceptance sweep: (name, labels, covers)
ACCEPTANCE_SHAPES = [
    ("chain2", ["1", "2"], [("1", "2")]),
    ("chain3", ["1", "2", "3"], [("1", "2"), ("2", "3")]),
    ("chain4", ["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4")]),
    ("vee", ["1", "2", "3"], [("1", "2"), ("1", "3")]),
    ("wedge", ["1", "2", "3"], [("1", "3"), ("2", "3")]),
    ("diamond", ["1", "2", "3", "4"],
     [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")]),
    ("chain2_point", ["1", "2", "3"], [("1", "2")]),
    ("chain3_point", ["1", "2", "3", "4"], [("1", "2"), ("2", "3")]),
]


def two_block_datum(ambient, h1, h2, chi, degree):
    skeleton = chain_poset(["1", "2"])
    cls = BimoduleClass(h1, h2, [(chi, degree)])
    return GradingDatum(ambient, skeleton, {"1": h1, "2": h2},
                        {("1", "2"): cls})


def chain_datum(ambient, blocks, cover_classes):
    labels = [str(n + 1) for n in range(len(blocks))]
    skeleton = chain_poset(labels)
    covers = {(labels[n], labels[n + 1]): cover_classes[n]
              for n in range(len(cover_classes))}
    return GradingDatum(ambient, skeleton,
                        dict(zip(labels, blocks)), covers)


def diamond_datum(ambient, blocks, cover_classes):
    """blocks/covers ordered bottom, left, right, top."""
    skeleton = poset_from_relation(
        ["1", "2", "3", "4"],
        [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")])
    b, l, r, t = blocks
    c12, c13, c24, c34 = cover_classes
    return GradingDatum(ambient, skeleton,
                        {"1": b, "2": l, "3": r, "4": t},
                        {("1", "2"): c12, ("1", "3"): c13,
                         ("2", "4"): c24, ("3", "4"): c34})


def subgroup_pool(ambient):
    return all_subgroups(ambient)


def _degree_window(ambient):
    """Every element of a finite ambient group; with free rank, those
    whose free coordinates lie in [-2, 2]."""
    if ambient.is_finite:
        return list(ambient.elements())
    torsion = AbelianGroup(0, ambient.torsion_factors)
    return [ambient.element(free + g.coords)
            for free in itertools.product(range(-2, 3), repeat=ambient.free_rank)
            for g in torsion.elements()]


def grading_data(shapes, groups):
    """A hypothesis strategy for random data over the (labels, covers)
    shapes and the ambient groups.  In half the data nine covers in ten
    are coboundaries (the cover on u <. w is mu_u / mu_w with degree
    p_w - p_u), so chains mostly agree and most data validate; the other
    half have free covers, where conflicts and disagreeing chains are
    common.  Over an ambient group with free rank the blocks are its
    finite subgroups and the degrees have free coordinates in [-2, 2]."""
    subgroups = {g: finite_subgroups(g) for g in groups}
    degrees = {g: _degree_window(g) for g in groups}

    @st.composite
    def data(draw):
        labels, relation = draw(st.sampled_from(shapes))
        ambient = draw(st.sampled_from(groups))
        # nontrivial blocks weigh three times, so covers often carry two
        # characters, whose products can force degree conflicts
        subs = [h for h in subgroups[ambient] if h.order > 1] * 3 + subgroups[ambient]
        blocks = {v: draw(st.sampled_from(subs)) for v in labels}
        skeleton = poset_from_relation(labels, relation)
        elems = degrees[ambient]
        coboundary = draw(st.booleans())
        mu = {v: draw(st.sampled_from(dual_group(blocks[v]))) for v in labels}
        pot = {v: draw(st.sampled_from(elems)) for v in labels}
        covers = {}
        for u, w in skeleton.covers():
            mid = intersect(blocks[u], blocks[w])
            chars = dual_group(mid)
            if coboundary and draw(st.integers(0, 9)) > 0:
                pairs = [(restrict(mu[u], mid) * restrict(mu[w], mid).inverse(),
                          pot[w] - pot[u])]
            else:
                # a repeated character breaks condition (2), which the
                # derivation must still handle as listing the chains does
                picks = draw(st.lists(st.sampled_from(chars), min_size=1, max_size=2))
                pairs = [(chi, draw(st.sampled_from(elems))) for chi in picks]
            covers[(u, w)] = BimoduleClass(blocks[u], blocks[w], pairs)
        return GradingDatum(ambient, skeleton, blocks, covers)

    return data()


# ---------------------------------------------------------------------------
# data whose realization is not graded


def _trivial_class(left, right, deg):
    return BimoduleClass(left, right,
                         [(trivial_character(intersect(left, right)), deg)])


def diamond_over_z2():
    """Block 1 is Z/2, the others trivial, every character trivial; the
    paths 1-2-4 and 1-3-4 carry degrees 1 and 0, equal modulo H_1 + H_4.
    It validates, and its realization is not graded."""
    z2 = AbelianGroup(0, [2])
    whole, t = full_subgroup(z2), trivial_subgroup(z2)
    return diamond_datum(z2, [whole, t, t, t], [
        _trivial_class(whole, t, z2.zero()),
        _trivial_class(whole, t, z2.zero()),
        _trivial_class(t, t, z2.element([1])),
        _trivial_class(t, t, z2.zero()),
    ])


def chain_over_z8():
    """Blocks Z/8, <2>, <2>; covers (1, 2) = {1/4 @ 0, 1/2 @ 0} and
    (2, 3) = {3/4 @ 0, 1/2 @ 1}.  It validates, and its realization is not
    graded."""
    z8 = AbelianGroup(0, [8])
    whole, two = full_subgroup(z8), canonicalize([z8.element([2])], z8)
    by_value = {chi.values[0]: chi for chi in dual_group(two)}
    return chain_datum(z8, [whole, two, two], [
        BimoduleClass(whole, two, [(by_value[Fraction(1, 4)], z8.zero()),
                                   (by_value[Fraction(1, 2)], z8.zero())]),
        BimoduleClass(two, two, [(by_value[Fraction(3, 4)], z8.zero()),
                                 (by_value[Fraction(1, 2)], z8.element([1]))]),
    ])


BOOLEAN3 = [("0", "a"), ("0", "b"), ("0", "c"), ("a", "ab"), ("a", "ac"),
            ("b", "ab"), ("b", "bc"), ("c", "ac"), ("c", "bc"),
            ("ab", "t"), ("ac", "t"), ("bc", "t")]


def b3_over_z3():
    """Blocks c and bc are Z/3, the rest trivial; cover (c, bc) carries the
    character 2/3, every other cover the trivial one."""
    z3 = AbelianGroup(0, [3])
    full, trivial = full_subgroup(z3), trivial_subgroup(z3)
    labels = ["0", "a", "b", "c", "ab", "ac", "bc", "t"]
    blocks = {v: full if v in ("c", "bc") else trivial for v in labels}
    degrees = {("0", "a"): 0, ("0", "b"): 2, ("0", "c"): 0, ("a", "ab"): 0,
               ("a", "ac"): 0, ("b", "ab"): 1, ("b", "bc"): 0, ("c", "ac"): 0,
               ("c", "bc"): 0, ("ab", "t"): 2, ("ac", "t"): 2, ("bc", "t"): 0}
    covers = {}
    for (u, w), g in degrees.items():
        mid = intersect(blocks[u], blocks[w])
        chi = dual_group(mid)[2] if (u, w) == ("c", "bc") else trivial_character(mid)
        covers[(u, w)] = BimoduleClass(blocks[u], blocks[w], [(chi, z3.element([g]))])
    return GradingDatum(z3, poset_from_relation(labels, BOOLEAN3), blocks, covers)


def boolean_coboundary(n, rng, broken=False):
    """Full Z/4 blocks on B_n; the cover u <. w carries mu_u / mu_w with
    degree p_w - p_u, so every chain telescopes and the datum is valid.
    broken multiplies one cover character by a nontrivial character, as
    the classify benchmark does, which breaks the squares through it."""
    z4 = AbelianGroup(0, [4])
    full = full_subgroup(z4)
    labels = [frozenset(s) for r in range(n + 1)
              for s in itertools.combinations(range(n), r)]
    name = {s: "".join(map(str, sorted(s))) or "e" for s in labels}
    covers = [(name[s], name[s | {x}]) for s in labels for x in range(n) if x not in s]
    dual = dual_group(full)
    mu = {name[s]: rng.choice(dual) for s in labels}
    pot = {name[s]: z4.element([rng.randrange(4)]) for s in labels}
    chars = {(u, w): mu[u] * mu[w].inverse() for u, w in covers}
    if broken:
        bad = rng.choice(covers)
        chars[bad] = chars[bad] * rng.choice(dual[1:])
    return GradingDatum(z4, poset_from_relation([name[s] for s in labels], covers),
                        {name[s]: full for s in labels},
                        {(u, w): BimoduleClass(full, full, [(chars[(u, w)],
                                                             pot[w] - pot[u])])
                         for u, w in covers})


# ---------------------------------------------------------------------------
# reference derivation: every saturated chain listed and composed on its own


def saturated_chains(skeleton, i, j):
    """All saturated chains i = v0 <. v1 <. ... <. vr = j."""
    cover_up = {}
    for x, y in skeleton.covers():
        cover_up.setdefault(x, []).append(y)
    chains = []

    def walk(path):
        last = path[-1]
        if last == j:
            chains.append(tuple(path))
            return
        for y in cover_up.get(last, ()):
            if skeleton.leq(y, j):
                path.append(y)
                walk(path)
                path.pop()

    walk([i])
    return chains


def _merge_state(entries, reducer):
    merged = {}
    for chi, deg in entries:
        key = (chi, reducer.least_coset_coords(deg).coords)
        if key not in merged:
            for (other, _), kept in list(merged.items()):
                if other == chi:
                    raise DegreeConflict(
                        f"character {chi!r} forced into two distinct degree cosets")
            merged[key] = (chi, deg)
    return list(merged.values())


def _chain_pairs(d, chain):
    i = chain[0]
    h_i = d.blocks[i]
    cover = d.cover_bimodules[(chain[0], chain[1])]
    state = [(chi, g) for chi, g in cover.pairs]
    cur = chain[1]
    for nxt in chain[2:]:
        cover = d.cover_bimodules[(cur, nxt)]
        h_i_nxt = intersect(h_i, d.blocks[nxt])
        h_mid = intersect(h_i_nxt, d.blocks[cur])
        new_state = []
        for chi_acc, deg_acc in state:
            r_acc = restrict(chi_acc, h_mid)
            for chi_cov, g_cov in cover.pairs:
                target = r_acc * restrict(chi_cov, h_mid)
                deg = deg_acc + g_cov
                for ext in extension_fiber(target, h_i_nxt):
                    new_state.append((ext, deg))
        state = _merge_state(new_state, subgroup_sum(h_i, d.blocks[nxt]))
        cur = nxt
    return state


def reference_derive(d, collect_issues=None):
    """The chain-by-chain derivation: same contract as datum._derive."""
    raw = {}
    for i, j in d.comparable_block_pairs():
        chains = saturated_chains(d.skeleton, i, j)
        reducer = subgroup_sum(d.blocks[i], d.blocks[j])
        results = []
        failed = False
        for chain in chains:
            try:
                results.append(_merge_state(_chain_pairs(d, chain), reducer))
            except DegreeConflict as exc:
                if collect_issues is None:
                    raise
                collect_issues.append(((i, j), str(exc)))
                failed = True
                break
        if failed:
            continue
        canonical = [sorted((chi.values, reducer.least_coset_coords(deg).coords)
                            for chi, deg in res) for res in results]
        if any(c != canonical[0] for c in canonical[1:]):
            message = (f"saturated chains between {i!r} and {j!r} derive "
                       f"non-isomorphic bimodules")
            if collect_issues is None:
                raise ChainInconsistency(message)
            collect_issues.append(((i, j), message))
            continue
        raw[(i, j)] = results[0]
    return raw


def reference_derive_rows(d, collect_issues=None):
    """reference_derive in the row form of datum._derive, for which it
    can stand in: {pair: ((character exponents, degree coordinates), ...)}."""
    return {pair: tuple((chi.exps, deg.coords) for chi, deg in state)
            for pair, state in reference_derive(d, collect_issues).items()}


def reference_relation(d):
    """The comparable (vertex, vertex) pairs of realize(d).poset for a valid
    datum, by the object-form rule: eta_i lies below eta_j when eta_i
    restricts on H_i /\\ H_j to chi * eta_j for a character chi that the
    chain-by-chain derivation gives the pair (i, j)."""
    pairs = {(vertex_label(v, eta), vertex_label(v, eta))
             for v, h in d.blocks.items() for eta in dual_group(h)}
    for (i, j), state in reference_derive(d).items():
        h_ij = intersect(d.blocks[i], d.blocks[j])
        for chi, _ in state:
            for eta_j in dual_group(d.blocks[j]):
                want = chi * restrict(eta_j, h_ij)
                for eta_i in extension_fiber(want, d.blocks[i]):
                    pairs.add((vertex_label(i, eta_i), vertex_label(j, eta_j)))
    return pairs


def reference_product(m12, m23):
    """bimodule_product by the object-form rule: restrict, multiply and
    extend Character objects, add GroupElement degrees, merge with
    _merge_state above.  Raises DegreeConflict as the package does."""
    h1, h2, h3 = m12.left, m12.right, m23.right
    h13 = intersect(h1, h3)
    h_mid = intersect(h13, h2)
    entries = []
    for chi_a, deg_a in m12.pairs:
        for chi_b, deg_b in m23.pairs:
            target = restrict(chi_a, h_mid) * restrict(chi_b, h_mid)
            entries += [(ext, deg_a + deg_b) for ext in extension_fiber(target, h13)]
    merged = _merge_state(entries, subgroup_sum(h1, h3))
    return BimoduleClass(h1, h3, sorted(merged, key=lambda p: p[0].exps))


def reference_triple_issue(d, i, k, j, left, right, whole):
    """The triple check as written before the composition was shared:
    the issue message for the triple i < k < j, or None."""
    h_ij = intersect(d.blocks[i], d.blocks[j])
    h_ikj = intersect(h_ij, d.blocks[k])
    reducer = subgroup_sum(d.blocks[i], d.blocks[j])
    produced = {}
    for chi_a, deg_a in left:
        r_a = restrict(chi_a, h_ikj)
        for chi_b, deg_b in right:
            target = r_a * restrict(chi_b, h_ikj)
            for ext in extension_fiber(target, h_ij):
                produced[ext] = deg_a + deg_b
    have = {chi: deg for chi, deg in whole}
    if set(produced) != set(have):
        return "character sets of the two-step product and the derived class differ"
    for chi, deg in produced.items():
        if (deg - have[chi]) not in reducer:
            return (f"degree of {chi!r} differs between the two-step product "
                    f"and the derived class")
    return None


def reference_validate(d):
    """(issues, checked_triples) of validate_datum, each issue a
    (condition, location, message) tuple, from the chain-by-chain
    derivation and a triple check on every triple i < k < j whose three
    pairs are derived."""
    issues = [("2", f"cover ({i!r}, {j!r})",
               "repeated character: not a submodule of the regular module")
              for (i, j), cls in sorted(d.cover_bimodules.items(),
                                        key=lambda kv: (str(kv[0][0]), str(kv[0][1])))
              if len(set(cls.characters())) != len(cls.pairs)]
    conflicts = []
    raw = reference_derive(d, conflicts)
    issues += [("3", f"pair ({i!r}, {j!r})", message) for (i, j), message in conflicts]
    checked = 0
    for i, j in d.comparable_block_pairs():
        for k in d.skeleton.strictly_between(i, j):
            checked += 1
            parts = [raw.get(pair) for pair in ((i, k), (k, j), (i, j))]
            if None not in parts:
                issue = reference_triple_issue(d, i, k, j, *parts)
                if issue is not None:
                    issues.append(("3", f"triple ({i!r}, {k!r}, {j!r})", issue))
    return issues, checked


# ---------------------------------------------------------------------------
# reference oracle: general products, flat vectors closed under zeta by
# power-table rows, and the zeta-closed full-rank check


def reference_flatten(elems, pair_index, conductor):
    """Power-basis numerators of every coefficient at one common scale."""
    phi = euler_phi(conductor)
    lifted = [[(pair_index[pair] * phi, c.lift(conductor))
               for pair, c in elem.coeffs.items()] for elem in elems]
    scale = reduce(lcm, (c.den for blocks in lifted for _, c in blocks), 1)
    out = []
    for blocks in lifted:
        flat = {}
        for base, c in blocks:
            for p, x in enumerate(c.nums):
                if x:
                    flat[base + p] = x * (scale // c.den)
        out.append(flat)
    return out


def reference_zeta_shift(flat, conductor, power):
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


def reference_zeta_closed_space(flats, conductor):
    """Q-row space of all zeta-power multiples; its rank is phi(N) times
    the rank over the cyclotomic field."""
    phi = euler_phi(conductor)
    space = RationalRowSpace()
    for flat in flats:
        for a in range(phi):
            space.add(reference_zeta_shift(flat, conductor, a))
    return space


def reference_verify_grading(r):
    """verify_grading as written before the group-ring products and the
    modular certificate: same contract as oracle.verify_grading."""
    report = VerificationReport()
    pairs = r.poset.comparable_pairs()
    pair_index = {p: n for n, p in enumerate(pairs)}
    dim = len(pairs)
    report.dimension = dim
    report.basis_size = len(r.basis)
    conductor = _conductor_of([b.element for b in r.basis])
    phi = euler_phi(conductor)
    flats = reference_flatten([b.element for b in r.basis], pair_index, conductor)
    if len(r.basis) != dim:
        report.flag("basis-size", "basis",
                    f"{len(r.basis)} basis elements for dimension {dim}")
    space = RationalRowSpace()
    for idx, flat in enumerate(flats):
        added = sum(1 for a in range(phi)
                    if space.add(reference_zeta_shift(flat, conductor, a)))
        if added != phi:
            report.flag("dependent-basis", f"basis[{idx}]",
                        "element lies in the span of its predecessors")
    if space.rank != phi * dim:
        report.flag("not-spanning", "basis",
                    f"rank {space.rank} over Q, expected {phi * dim}")
    by_degree = {}
    for idx, b in enumerate(r.basis):
        by_degree.setdefault(b.degree, []).append(idx)
    spaces = {}

    def span_of_degree(deg):
        if deg not in spaces:
            spaces[deg] = reference_zeta_closed_space(
                [flats[m] for m in by_degree.get(deg, ())], conductor)
        return spaces[deg]

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
                    reference_flatten([w], pair_index, conductor)[0]):
                report.flag("product-escape", f"basis[{iu}] * basis[{iv}]",
                            "product escapes the component of the summed degree")
    one = reference_flatten([identity_element(r.poset)], pair_index, conductor)[0]
    if not span_of_degree(r.ambient.zero()).contains(one):
        report.flag("identity-degree", "identity",
                    "identity element is not homogeneous of degree 0")
    return report


# ---------------------------------------------------------------------------
# reference twist projectors: the honest projector by general products, its
# images of the two-step products, and their isotypic ranks


def apply_twist_projector(r, i, k, chi, elem):
    """pi_chi(v) = (1/|H_ik|) sum over h of chi(h)^{-1} * psi_i(h) v psi_k(-h),
    the honest projector of the twist action on the (i, k) strip."""
    diag = {(b.tag[1], b.tag[2]): b.element for b in r.basis if b.tag[0] == "diag"}
    h_ik = intersect(r.datum.blocks[i], r.datum.blocks[k])
    total = IncidenceElement(r.poset, {})
    for h in h_ik.elements():
        left = diag[(i, h.coords)]
        right = diag[(k, (-h).coords)]
        term = (left * elem) * right
        total = total + term.scale(root_of_unity((-chi(h)) % 1))
    return total.scale(Fraction(1, h_ik.order))


def honest_projections(r, i, k):
    """The two-step products M_ij * M_jk by the general convolution, in
    (middle, u, v) order with zero products skipped, as [(product,
    degree)], and per character of H_ik the nonzero apply_twist_projector
    images, [(image, degree)] in product order."""
    products = []
    for j in r.datum.skeleton.strictly_between(i, k):
        for u in [b for b in r.basis if b.tag[:3] == ("cross", i, j)]:
            for v in [b for b in r.basis if b.tag[:3] == ("cross", j, k)]:
                w = u.element * v.element
                if not w.is_zero():
                    products.append((w, u.degree + v.degree))
    projected = {}
    for chi in dual_group(intersect(r.datum.blocks[i], r.datum.blocks[k])):
        images = [(apply_twist_projector(r, i, k, chi, w), deg)
                  for w, deg in products]
        projected[chi] = [(pw, deg) for pw, deg in images if not pw.is_zero()]
    return products, projected


def isotypic_rank_table(r, i, k):
    """Rank of each character's isotypic piece plus the total span rank,
    over the cyclotomic field, from the honest projector's pieces
    (projector completeness checks)."""
    products, projected = honest_projections(r, i, k)
    pair_index = {p: n for n, p in enumerate(r.poset.comparable_pairs())}
    conductor = _conductor_of([elem for pieces in [products, *projected.values()]
                               for elem, _ in pieces])
    phi = euler_phi(conductor)

    def rank(pieces):
        flats = reference_flatten([elem for elem, _ in pieces], pair_index, conductor)
        q_rank = reference_zeta_closed_space(flats, conductor).rank
        assert q_rank % phi == 0
        return q_rank // phi

    return {chi: rank(pieces) for chi, pieces in projected.items()}, rank(products)


# ---------------------------------------------------------------------------
# reference characters: the Fraction formulas Character used before it
# stored integer exponents


class ReferenceCharacter:
    """A character kept as Fraction values on the invariant-factor
    generators of its domain, every operation written on the values."""

    def __init__(self, domain, values):
        self.domain = domain
        self.values = tuple(Fraction(v) for v in values)

    @classmethod
    def of(cls, chi):
        return cls(chi.domain, chi.values)

    def __call__(self, g):
        coords = self.domain.generator_coords(g)
        total = Fraction(0)
        idx = 0
        for c, order in zip(coords, self.domain._gen_orders):
            if order > 1:
                total += c * self.values[idx]
                idx += 1
        return total % 1

    def is_trivial(self):
        return not any(self.values)

    def __mul__(self, other):
        assert self.domain == other.domain
        return ReferenceCharacter(
            self.domain, ((a + b) % 1 for a, b in zip(self.values, other.values)))

    def inverse(self):
        return ReferenceCharacter(self.domain, ((-v) % 1 for v in self.values))

    def order(self):
        return lcm(1, *(v.denominator for v in self.values))

    def restrict(self, k):
        return ReferenceCharacter(k, (self(g) for g in k.torsion_generators))


def reference_exponent_rows(h, n):
    """characters.exponent_rows by its former formula: each entry a sum
    over the element's generator coordinates, weighted by n / s_i times
    the character's exponents; tuples, as exponent_rows holds them."""
    coords = [_carried(h, h.generator_coords(g)) for g in h.elements()]
    rows = []
    for chi in dual_group(h):
        weights = [e * (n // d) for e, d in zip(chi.exps, h.structure)]
        rows.append(tuple(sum(c * w for c, w in zip(cs, weights)) % n for cs in coords))
    return tuple(rows)


def reference_extension_fiber(chi, h):
    """The characters of h restricting to chi: a filter over dual_group(h)."""
    return [eta for eta in dual_group(h)
            if ReferenceCharacter.of(eta).restrict(chi.domain).values == chi.values]


# ---------------------------------------------------------------------------
# grading isomorphism by exhaustive search


def _naive_grading_iso(d, d2):
    """Independent exhaustive search: every label bijection, every mu tuple."""
    labels = list(d.skeleton.elements)
    labels2 = list(d2.skeleton.elements)
    if len(labels) != len(labels2):
        return False
    covers = list(d.cover_bimodules)
    for image in itertools.permutations(labels2):
        alpha = dict(zip(labels, image))
        if any(d.blocks[v] != d2.blocks[alpha[v]] for v in labels):
            continue
        if any(d.skeleton.leq(x, y) != d2.skeleton.leq(alpha[x], alpha[y])
               for x in labels for y in labels):
            continue
        # cover matches depend on mu only through the product of the two
        # restrictions; tabulate per cover before sweeping tuples
        tables = []
        for (u, w) in covers:
            mid = d.cover_bimodules[(u, w)].middle
            table = {}
            for factor in dual_group(mid):
                twisted = BimoduleClass(
                    d2.blocks[alpha[u]], d2.blocks[alpha[w]],
                    [(factor * chi, g) for chi, g in
                     d2.cover_bimodules[(alpha[u], alpha[w])].pairs])
                table[factor.values] = bimodule_iso(
                    d.cover_bimodules[(u, w)], twisted)[0]
            tables.append(((u, w), mid, table))
        restriction = {}
        for v in labels:
            for mu in dual_group(d.blocks[v]):
                for (u, w), mid, _ in tables:
                    if v in (u, w):
                        restriction[(v, mu.values, mid)] = restrict(mu, mid)
        duals = [dual_group(d.blocks[v]) for v in labels]
        for assignment in itertools.product(*duals):
            chosen = dict(zip(labels, assignment))
            ok = True
            for (u, w), mid, table in tables:
                f = (restriction[(u, chosen[u].values, mid)]
                     * restriction[(w, chosen[w].values, mid)])
                if not table[f.values]:
                    ok = False
                    break
            if ok:
                return True
    return False


def with_reversed_cross_pair(r):
    """(realization, idx): r with its first cross member written over one
    reversed, incomparable pair, which `IncidenceElement.from_roots`
    accepts unchecked, and that member's index."""
    basis = list(r.basis)
    idx = next(n for n, b in enumerate(basis) if b.tag[0] == "cross")
    old = basis[idx]
    roots = dict(old.element.roots)
    x, y = next(iter(roots))
    roots[(y, x)] = roots.pop((x, y))
    basis[idx] = BasisVector(
        IncidenceElement.from_roots(r.poset, old.element.conductor, roots),
        old.degree, old.tag)
    return RealizedGrading(r.datum, r.poset, r.vertex_data, basis, r.full_raw), idx


def plant_malformed_basis(r, case):
    """r with one change to its basis, named by `case`: the first cross
    member of the pair ("1", "2") tagged () ("empty-tag") or ("cross",)
    ("short-tag"), or with its degree shifted by the ambient's first
    generator ("shifted-degree"); or the first diagonal image of block "1"
    dropped ("dropped-diagonal") or given that cross member's element
    ("cross-on-diagonal")."""
    basis = list(r.basis)
    cross = next(n for n, b in enumerate(basis) if b.tag[:3] == ("cross", "1", "2"))
    diag = next(n for n, b in enumerate(basis) if b.tag[:2] == ("diag", "1"))
    member = basis[cross]
    if case == "dropped-diagonal":
        del basis[diag]
    elif case == "cross-on-diagonal":
        basis[diag] = replace(basis[diag], element=member.element)
    else:
        step = r.ambient.element([1] + [0] * (r.ambient.rank - 1))
        basis[cross] = {"empty-tag": replace(member, tag=()),
                        "short-tag": replace(member, tag=("cross",)),
                        "shifted-degree": replace(member, degree=member.degree + step),
                        }[case]
    return RealizedGrading(r.datum, r.poset, r.vertex_data, basis, r.full_raw)
