"""grading_iso against the exhaustive search, and how its work grows.

The search pairs off the connected components of the two skeletons, so
the data here have several components: isolated vertices, components of
one shape that differ only in their blocks or cover classes (a pairing by
shape alone would go wrong on them), and relabelled, twisted partners.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from incidence_gradings import datum
from incidence_gradings.abelian import AbelianGroup, all_subgroups, full_subgroup, intersect
from incidence_gradings.bimodules import BimoduleClass, bimodule_iso, twist
from incidence_gradings.characters import dual_group
from incidence_gradings.datum import GradingDatum, grading_iso
from incidence_gradings.posets import poset_from_relation

from helpers import _naive_grading_iso

# Z/4 and Z/2 x Z/2 first: their order-4 cover middles carry classes of
# two characters in different twist orbits
GROUPS = [AbelianGroup(0, [4]), AbelianGroup(0, [2, 2]), AbelianGroup(0, [2]),
          AbelianGroup(0, [3])]
# (size, covers on the local indices): cover, point, vee, wedge, chain,
# and the diamond, where the twists of its four covers are not independent
COMPONENT_SHAPES = [
    (2, [(0, 1)]),
    (1, []),
    (3, [(0, 1), (0, 2)]),
    (3, [(0, 2), (1, 2)]),
    (3, [(0, 1), (1, 2)]),
    (4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
]
# the exhaustive search lists every label bijection and every mu tuple
MAX_VERTICES = 6


def witness_holds(d, d2, alpha, mu):
    """Re-check an isomorphism witness cover by cover."""
    labels = d.skeleton.elements
    if sorted(alpha) != sorted(labels) or sorted(alpha.values()) != sorted(d2.skeleton.elements):
        return False
    if any(d.blocks[v] != d2.blocks[alpha[v]] for v in labels):
        return False
    if any(d.skeleton.leq(x, y) != d2.skeleton.leq(alpha[x], alpha[y])
           for x in labels for y in labels):
        return False
    return all(bimodule_iso(cls, twist(d2.cover_bimodules[(alpha[u], alpha[w])],
                                       mu[u], mu[w]))[0]
               for (u, w), cls in d.cover_bimodules.items())


def _random_class(draw, elems, left, right):
    chars = dual_group(intersect(left, right))
    size = draw(st.sampled_from([2, 1][2 - min(2, len(chars)):]))
    picks = draw(st.lists(st.sampled_from(chars), min_size=size, max_size=size,
                          unique=True))
    return BimoduleClass(left, right, [(chi, draw(st.sampled_from(elems))) for chi in picks])


def _orbit_key(pairs, middle):
    """The least key of a class over all twists of its characters."""
    return min(tuple(sorted(((f * chi).exps, g.coords) for chi, g in pairs))
               for f in dual_group(middle))


def _perturbed(draw, cls):
    """cls with the character of one pair multiplied by a nontrivial
    character of the middle: degrees and blocks stay, and the twist orbit
    changes wherever one such change can move it."""
    key = _orbit_key(cls.pairs, cls.middle)
    options = []
    for n, (chi, g) in enumerate(cls.pairs):
        for x in dual_group(cls.middle)[1:]:
            pairs = list(cls.pairs)
            pairs[n] = (chi * x, g)
            options.append(pairs)
    if not options:
        return cls
    moved = [pairs for pairs in options if _orbit_key(pairs, cls.middle) != key]
    return BimoduleClass(cls.left, cls.right, draw(st.sampled_from(moved or options)))


@st.composite
def component_pairs(draw):
    """(d, d2, relabelled): d has 2-4 components on at most MAX_VERTICES
    vertices; d2 is d relabelled, reordered and twisted, and with
    relabelled false one cover class of d2 is drawn afresh."""
    ambient = draw(st.sampled_from(GROUPS))
    # a subgroup weighs its order: large cover middles let twists act
    subs = [h for h in all_subgroups(ambient) for _ in range(h.order)]
    elems = list(ambient.elements())
    count = draw(st.integers(2, 4))
    components = []  # (shape, blocks, {local cover: class})
    room = MAX_VERTICES
    for n in range(count):
        fits = [s for s in COMPONENT_SHAPES if s[0] <= room - (count - n - 1)]
        earlier = [c for c in components if c[0] in fits]
        # the shape of an earlier component with its classes perturbed, or
        # with new classes, or with new blocks; or a new shape
        change = draw(st.sampled_from(["perturb", "classes", "blocks"])
                      if earlier and not draw(st.booleans()) else st.just("shape"))
        if change == "shape":
            shape = draw(st.sampled_from(fits))
        else:
            shape, blocks, old = draw(st.sampled_from(earlier))
        if change in ("shape", "blocks"):
            blocks = [draw(st.sampled_from(subs)) for _ in range(shape[0])]
        if change == "perturb":
            classes = {cover: _perturbed(draw, cls) for cover, cls in old.items()}
        else:
            classes = {(a, b): _random_class(draw, elems, blocks[a], blocks[b])
                       for a, b in shape[1]}
        components.append((shape, blocks, classes))
        room -= shape[0]

    labels, relation, blocks, covers, members = [], [], {}, {}, []
    for shape, comp_blocks, classes in components:
        local = [f"v{len(labels) + n}" for n in range(shape[0])]
        members.append(local)
        labels += local
        blocks.update(zip(local, comp_blocks))
        for (a, b), cls in classes.items():
            relation.append((local[a], local[b]))
            covers[(local[a], local[b])] = cls
    d = GradingDatum(ambient, poset_from_relation(labels, relation), blocks, covers)

    # d2 lists the components in a drawn order, reversed half the time so
    # that a perturbed copy comes before its original
    order = list(range(count))
    order = order[::-1] if draw(st.booleans()) else draw(st.permutations(order))
    names = [v for n in order for v in members[n]]
    rename = {v: f"w{n}" for n, v in enumerate(names)}
    mu = {v: draw(st.sampled_from(dual_group(blocks[v]))) for v in labels}
    covers2 = {(rename[u], rename[w]): twist(cls, mu[u], mu[w])
               for (u, w), cls in covers.items()}
    relabelled = not covers or draw(st.booleans())
    if not relabelled:
        u, w = draw(st.sampled_from(sorted(covers2)))
        covers2[(u, w)] = _random_class(draw, elems, covers2[(u, w)].left,
                                        covers2[(u, w)].right)
    d2 = GradingDatum(
        ambient,
        poset_from_relation([rename[v] for v in names],
                            [(rename[u], rename[w]) for u, w in relation]),
        {rename[v]: h for v, h in blocks.items()}, covers2)
    return d, d2, relabelled


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(component_pairs())
def test_grading_iso_matches_exhaustive_search(pair):
    d, d2, relabelled = pair
    flag, witness = grading_iso(d, d2)
    assert flag == _naive_grading_iso(d, d2)
    assert grading_iso(d2, d)[0] == flag
    if relabelled:
        assert flag
    if flag:
        assert witness_holds(d, d2, *witness)
    else:
        assert witness is None


def test_grading_iso_pairs_components_of_one_shape_by_their_data():
    # two covers of one shape and blocks whose classes lie in different
    # twist orbits: the partner lists them the other way round
    z4 = AbelianGroup(0, [4])
    h = full_subgroup(z4)
    dual = dual_group(h)
    zero = z4.zero()
    near = BimoduleClass(h, h, [(dual[0], zero), (dual[1], zero)])
    far = BimoduleClass(h, h, [(dual[0], zero), (dual[2], zero)])
    skeleton = poset_from_relation(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    blocks = {v: h for v in "abcd"}
    d = GradingDatum(z4, skeleton, blocks, {("a", "b"): near, ("c", "d"): far})
    d2 = GradingDatum(z4, skeleton, blocks, {("a", "b"): far, ("c", "d"): near})
    flag, witness = grading_iso(d, d2)
    assert flag and witness_holds(d, d2, *witness)
    assert witness[0] == {"a": "c", "b": "d", "c": "a", "d": "b"}
    d3 = GradingDatum(z4, skeleton, blocks, {("a", "b"): far, ("c", "d"): far})
    assert not grading_iso(d, d3)[0]
    assert not _naive_grading_iso(d, d3)


# ---------------------------------------------------------------------------
# scaling: k disjoint covers over Z/4


def _disjoint(rng, k):
    """k disjoint covers a_i <. b_i with full Z/4 blocks, each carrying two
    characters that differ by a character of order 4."""
    z4 = AbelianGroup(0, [4])
    h = full_subgroup(z4)
    dual = dual_group(h)
    elems = list(z4.elements())
    labels = [f"a{i}" for i in range(k)] + [f"b{i}" for i in range(k)]
    covers = {}
    for i in range(k):
        base = rng.choice(dual)
        covers[(f"a{i}", f"b{i}")] = BimoduleClass(
            h, h, [(base, rng.choice(elems)), (base * dual[1], rng.choice(elems))])
    return GradingDatum(z4, poset_from_relation(labels, list(covers)),
                        {v: h for v in labels}, covers)


def _partner(rng, d, k, broken):
    """d with its covers permuted and twisted; with broken, one cover's
    characters differ by a character of order 2, a class in no twist
    orbit of d's covers that keeps its degrees."""
    order = list(range(k))
    rng.shuffle(order)
    dual = dual_group(d.blocks["a0"])
    covers = {}
    for i, j in enumerate(order):
        mu_a, mu_b = rng.choice(dual), rng.choice(dual)
        cls = twist(d.cover_bimodules[(f"a{i}", f"b{i}")], mu_a, mu_b)
        if broken and i == 0:
            (chi, g), (_, g2) = cls.pairs
            cls = BimoduleClass(cls.left, cls.right, [(chi, g), (chi * dual[2], g2)])
        covers[(f"a{j}", f"b{j}")] = cls
    return GradingDatum(d.ambient, d.skeleton, d.blocks, covers)


def test_grading_iso_work_grows_polynomially_with_disjoint_covers(monkeypatch):
    calls = {"bimodule_iso": 0, "alpha": 0}
    iso = datum.bimodule_iso
    isomorphisms = datum.poset_isomorphisms

    def counting_iso(m, n):
        calls["bimodule_iso"] += 1
        return iso(m, n)

    def counting_isomorphisms(p, q, constraint=None):
        for alpha in isomorphisms(p, q, constraint):
            calls["alpha"] += 1
            yield alpha

    monkeypatch.setattr(datum, "bimodule_iso", counting_iso)
    monkeypatch.setattr(datum, "poset_isomorphisms", counting_isomorphisms)
    rng = random.Random(12)
    # ascending k: a search over all k! skeleton maps fails at small k
    for k in range(3, 9):
        d = _disjoint(rng, k)
        for broken in (True, False):
            d2 = _partner(rng, d, k, broken)
            calls.update(bimodule_iso=0, alpha=0)
            flag, witness = grading_iso(d, d2)
            assert flag != broken
            assert flag == (witness is not None)
            # at most k*k component pairs, each with one skeleton map and
            # a factor set from at most two candidate factors
            assert calls["alpha"] <= k * k, (k, broken, calls)
            assert calls["bimodule_iso"] <= 2 * k * k, (k, broken, calls)
            if flag:
                assert witness_holds(d, d2, *witness)
