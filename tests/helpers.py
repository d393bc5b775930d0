"""Shared builders for datum-level and acceptance tests."""

from incidence_gradings.abelian import (
    AbelianGroup,
    all_subgroups,
    intersect,
    subgroup_sum,
)
from incidence_gradings.bimodules import BimoduleClass
from incidence_gradings.characters import extension_fiber, restrict
from incidence_gradings.datum import GradingDatum
from incidence_gradings.errors import ChainInconsistency, DegreeConflict
from incidence_gradings.posets import chain_poset, poset_from_relation

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
