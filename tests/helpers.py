"""Shared builders for datum-level and acceptance tests."""

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
from incidence_gradings.bimodules import BimoduleClass
from incidence_gradings.characters import (
    dual_group,
    extension_fiber,
    restrict,
    trivial_character,
)
from incidence_gradings.cyclo import euler_phi
from incidence_gradings.datum import GradingDatum
from incidence_gradings.errors import ChainInconsistency, DegreeConflict
from incidence_gradings.incidence import identity_element
from incidence_gradings.oracle import (
    VerificationReport,
    _conductor_of,
    _zeta_closed_space,
    _zeta_shift,
)
from incidence_gradings.posets import chain_poset, poset_from_relation
from incidence_gradings.rowspan import RationalRowSpace

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


def grading_data(shapes, groups):
    """A hypothesis strategy for random data over the (labels, covers)
    shapes and the ambient groups.  In half the data nine covers in ten
    are coboundaries (the cover on u <. w is mu_u / mu_w with degree
    p_w - p_u), so chains mostly agree and most data validate; the other
    half have free covers, where conflicts and disagreeing chains are
    common."""
    subgroups = {g: all_subgroups(g) for g in groups}

    @st.composite
    def data(draw):
        labels, relation = draw(st.sampled_from(shapes))
        ambient = draw(st.sampled_from(groups))
        # nontrivial blocks weigh three times, so covers often carry two
        # characters, whose products can force degree conflicts
        subs = [h for h in subgroups[ambient] if h.order > 1] * 3 + subgroups[ambient]
        blocks = {v: draw(st.sampled_from(subs)) for v in labels}
        skeleton = poset_from_relation(labels, relation)
        elems = list(ambient.elements())
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


def reference_triple_issue(d, i, k, j, left, right, whole):
    """The triple check as written before the composition was shared:
    same contract as datum._triple_issue."""
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


# ---------------------------------------------------------------------------
# reference oracle: general products and the zeta-closed full-rank check


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
    spaces = {}

    def span_of_degree(deg):
        if deg not in spaces:
            spaces[deg] = _zeta_closed_space(
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
    zero = r.ambient.zero()
    one = reference_flatten([identity_element(r.poset)], pair_index, conductor)[0]
    if zero not in by_degree or not span_of_degree(zero).contains(one):
        report.flag("identity-degree", "identity",
                    "identity element is not homogeneous of degree 0")
    return report
