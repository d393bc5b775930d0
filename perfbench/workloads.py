"""Seeded workloads of the benchmark.

Each workload builds one fixed list of cases, the *pass*, which the driver
runs over and over.  A pass has a fixed composition (the same number of
cases of every kind for every seed) and the seed only picks the concrete
characters, degrees and validity labels inside each kind, so the mix of
cheap and expensive cases, and therefore every percentile, means the same
thing in every run.  The pass of seed s is generated from
random.Random(str(s)) and nothing else.

A case is a (kind, thunk) pair.  thunk(plant) runs the program on the
case's inputs, checks the output against the answer the generator built,
and returns True when the check passes.  With plant=True the expected
answer is deliberately wrong, which the benchmark's self-test uses to show
that a wrong answer is counted as a failure.

The program is called through its module attributes (datum.realize, ...)
so that the traced run can rebind them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random

from incidence_gradings import abelian, bimodules, characters, cli, datum, jsonio, oracle, posets


def _rng(seed):
    return random.Random(str(seed))


def _unit(rng, n):
    return rng.choice([u for u in range(1, n + 1) if math.gcd(u, n) == 1])


def _conjugate(chi, u):
    """chi raised to the power u, u prime to its order: a Galois conjugate,
    which costs the same cyclotomic work as chi."""
    return characters.Character(chi.domain, tuple(u * v % 1 for v in chi.values))


def _top_order(rng, h):
    """A character of h of the largest order: the first such, conjugated
    by a unit that rng draws."""
    base = max(characters.dual_group(h), key=lambda chi: chi.order())
    return _conjugate(base, _unit(rng, base.order()))


def _chain(ambient, blocks, covers):
    labels = [str(n + 1) for n in range(len(blocks))]
    return datum.GradingDatum(
        ambient, posets.chain_poset(labels), dict(zip(labels, blocks)),
        {(labels[n], labels[n + 1]): cls for n, cls in enumerate(covers)})


# ---------------------------------------------------------------------------
# product-sweep: criterion-4 cases, realize + radical oracle vs product


class ProductSweep:
    """Three-block chains with single-pair covers of degree 0, as in the
    criterion-4 sweep.  A pass takes, in each of Z/6, Z/8 and Z/2xZ/4, the
    first subgroup triple of every triple of orders (|H1|, |H2|, |H3|) with
    |H1| <= |H3| (a chain and its reverse cost about the same): 40 a group,
    the rare expensive triples (H, trivial, H) among them.  Each cover
    character is a Galois conjugate, drawn by the seed, of the first
    character of the largest order on its intersection, so every seed does
    the same cyclotomic work."""

    name = "product-sweep"
    tail_pct = 91
    trace_passes = 1
    TORSION = ([6], [8], [2, 4])

    def __init__(self, seed, workdir):
        self.seed = seed
        self.triples = []
        for torsion in self.TORSION:
            ambient = abelian.AbelianGroup(0, torsion)
            kind = "Z/" + "xZ/".join(map(str, torsion))
            subs = abelian.all_subgroups(ambient)
            seen = set()
            for h1, h2, h3 in itertools.product(subs, repeat=3):
                orders = (h1.order, h2.order, h3.order)
                if h1.order <= h3.order and orders not in seen:
                    seen.add(orders)
                    self.triples.append((kind, ambient, h1, h2, h3))

    def cases(self):
        rng = _rng(self.seed)
        cases = []
        for kind, ambient, h1, h2, h3 in self.triples:
            chi12 = _top_order(rng, abelian.intersect(h1, h2))
            chi23 = _top_order(rng, abelian.intersect(h2, h3))
            cases.append((kind, self._thunk(ambient, h1, h2, h3, chi12, chi23)))
        return cases

    @staticmethod
    def _thunk(ambient, h1, h2, h3, chi12, chi23):
        def run(plant):
            zero = ambient.zero()
            m12 = bimodules.BimoduleClass(h1, h2, [(chi12, zero)])
            m23 = bimodules.BimoduleClass(h2, h3, [(chi23, zero)])
            r = datum.realize(_chain(ambient, [h1, h2, h3], [m12, m23]))
            got = oracle.radical_square_component(r, "1", "3")
            want = bimodules.bimodule_product(m12, m23)
            h13 = abelian.intersect(h1, h3)
            count = h13.order // abelian.intersect(h13, h2).order
            if plant:
                count += 1
            return (bimodules.bimodule_iso(got, want)[0]
                    and len(got.pairs) == count and len(want.pairs) == count)
        return run


# ---------------------------------------------------------------------------
# verify-corpus: `incidence-gradings verify` over datum files


# (name, N, shape, block orders, pairs per cover, files per pass);
# blocks are the subgroups of Z/N of the given orders.  Chains carry one
# pair per cover and the vee/wedge shapes have no derived pairs, so every
# datum is valid by construction.  Listed from cheap to expensive.  The
# 34 files of a pass put the median in the middle of the eight z12-chain2
# files and the p69 tail among the eleven Z/24 chains, with ten files
# beyond it, so each percentile is one kind of work.  The degrees do not
# change what a file costs.
VERIFY_TEMPLATES = [
    ("z12-chain2-small", 12, "chain2", (4, 6), 1, 12),
    ("z12-chain2", 12, "chain2", (12, 6), 1, 8),
    ("z16-chain3", 16, "chain3", (8, 8, 8), 1, 1),
    ("z24-chain2", 24, "chain2", (6, 8), 1, 11),
    ("z20-vee", 20, "vee", (10, 5, 4), 2, 1),
    ("z24-wedge", 24, "wedge", (6, 8, 12), 2, 1),
]

SHAPES = {
    "chain2": (["1", "2"], [("1", "2")]),
    "chain3": (["1", "2", "3"], [("1", "2"), ("2", "3")]),
    "vee": (["1", "2", "3"], [("1", "2"), ("1", "3")]),
    "wedge": (["1", "2", "3"], [("1", "3"), ("2", "3")]),
}


class VerifyCorpus:
    """Datum files run through the CLI's `verify` command in-process."""

    name = "verify-corpus"
    tail_pct = 69
    trace_passes = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def cases(self):
        rng = _rng(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        cases = []
        for kind, n, shape, orders, npairs, count in VERIFY_TEMPLATES:
            for copy in range(count):
                d = self._datum(rng, n, shape, orders, npairs)
                path = self.workdir / f"{kind}-{copy}.json"
                path.write_text(jsonio.dumps_canonical(jsonio.encode_datum(d)),
                                encoding="utf-8")
                cases.append((kind, self._thunk(str(path), shape == "chain3")))
        return cases

    @staticmethod
    def _datum(rng, n, shape, orders, npairs):
        ambient = abelian.AbelianGroup(0, [n])
        labels, covers = SHAPES[shape]
        blocks = {v: abelian.canonicalize([ambient.element([n // o])], ambient)
                  for v, o in zip(labels, orders)}
        # the characters of largest order on each cover, all conjugated by
        # one unit mod N that the seed draws, so every seed does the same
        # cyclotomic work; the seed also draws the degrees
        unit = _unit(rng, n)
        cover_classes = {}
        for u, w in covers:
            chars = sorted(characters.dual_group(abelian.intersect(blocks[u], blocks[w])),
                           key=lambda chi: -chi.order())
            cover_classes[(u, w)] = bimodules.BimoduleClass(
                blocks[u], blocks[w],
                [(_conjugate(chi, unit), ambient.element([rng.randrange(n)]))
                 for chi in chars[:npairs]])
        return datum.GradingDatum(ambient, posets.poset_from_relation(labels, covers),
                                  blocks, cover_classes)

    @staticmethod
    def _thunk(path, has_product):
        def run(plant):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["verify", path])
            if code != (1 if plant else 0):
                return False
            doc = json.loads(out.getvalue())
            products = doc["radical_products"]
            return (doc["ok"] is True
                    and len(products) == int(has_product)
                    and all(p["agree"] is True for p in products)
                    and doc["grading"]["basis_size"] == doc["grading"]["dimension"])
        return run


# ---------------------------------------------------------------------------
# classify: grading_iso on labelled pairs, validate_datum on Boolean skeletons


SWEEP_TORSION = ([2], [3], [4], [2, 2], [6], [8], [2, 4])

RANDOM_SHAPES = [
    (["1", "2"], [("1", "2")]),
    (["1", "2", "3"], [("1", "2"), ("2", "3")]),
    (["1", "2", "3"], [("1", "2"), ("1", "3")]),
    (["1", "2", "3"], [("1", "3"), ("2", "3")]),
    (["1", "2", "3", "4"], [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")]),
    (["1", "2", "3"], [("1", "2")]),
]


def orbit_key(cls):
    """Canonical form of a cover class up to multiplying every character by
    one character of the middle group.  Twists act that way, so the key is
    a twist invariant."""
    return min(tuple(sorted(((f * chi).values, g.coords) for chi, g in cls.pairs))
               for f in characters.dual_group(cls.middle))


def twist_invariant(d):
    """Multiset of (blocks, orbit key) over the covers.  Isomorphic data
    have equal invariants, so unequal invariants certify a negative."""
    return sorted((repr(d.blocks[u].lattice_basis), repr(d.blocks[w].lattice_basis),
                   orbit_key(cls)) for (u, w), cls in d.cover_bimodules.items())


class Classify:
    """Isomorphism pairs with known verdicts plus Boolean-lattice data
    whose validity is known by construction."""

    name = "classify"
    tail_pct = 77
    trace_passes = 1
    # Per pass (45 cases).  From cheap to expensive: 14 positives and
    # random negatives, 14 boolean4, 12 boolean5, 4 disjoint3 negatives,
    # 1 boolean6.  The median falls in the middle of the boolean4 cases and
    # the p77 tail in the middle of the boolean5 cases, with ten cases
    # beyond it.  Each percentile is one kind of work, and validation costs
    # the same for every seed, while the cost of a negative search varies
    # by a quarter with its data.
    # (k, positives, negatives) for k disjoint covers over Z/4; a k = 4
    # negative (about 6 s) would take more than a whole pass.
    DISJOINT = [(3, 2, 4), (4, 2, 0)]
    RANDOM_POSITIVES, RANDOM_NEGATIVES = 6, 4
    # (n of the Boolean lattice B_n, how many data on it are validated)
    BOOLEAN = [(4, 14), (5, 12), (6, 1)]

    def __init__(self, seed, workdir):
        self.seed = seed
        self.z4 = abelian.AbelianGroup(0, [4])
        self.full = abelian.full_subgroup(self.z4)
        self.sweep = [(g, abelian.all_subgroups(g))
                      for g in (abelian.AbelianGroup(0, t) for t in SWEEP_TORSION)]
        self.boolean = {n: self._boolean_skeleton(n) for n, _ in self.BOOLEAN}

    def cases(self):
        rng = _rng(self.seed)
        cases = []
        for k, npos, nneg in self.DISJOINT:
            for _ in range(npos):
                d = self._disjoint(rng, k)
                cases.append((f"disjoint{k}-pos", self._iso(d, self._partner(rng, d), True)))
            for _ in range(nneg):
                d = self._disjoint(rng, k)
                cases.append((f"disjoint{k}-neg", self._iso(d, self._negative(rng, d), False)))
        for _ in range(self.RANDOM_POSITIVES):
            d = self._random_datum(rng)
            cases.append(("random-pos", self._iso(d, self._partner(rng, d), True)))
        for _ in range(self.RANDOM_NEGATIVES):
            while True:
                d = self._random_datum(rng)
                dm = self._negative(rng, d)
                if dm is not None:
                    break
            cases.append(("random-neg", self._iso(d, dm, False)))
        for n, count in self.BOOLEAN:
            for _ in range(count):
                valid = rng.random() < 0.5
                cases.append((f"boolean{n}", self._validate(self._boolean(rng, n, valid), valid)))
        return cases

    # -- generators -----------------------------------------------------

    def _disjoint(self, rng, k):
        """k disjoint covers a_i <. b_i with full Z/4 blocks.  Each cover
        carries two characters that differ by the same character of order
        4, so no twist fixes a cover class, every cover class lies in one
        twist orbit, and every search of a given k has the same shape."""
        labels = [f"a{i}" for i in range(k)] + [f"b{i}" for i in range(k)]
        covers = [(f"a{i}", f"b{i}") for i in range(k)]
        dual = characters.dual_group(self.full)
        elems = list(self.z4.elements())
        classes = {}
        for c in covers:
            base = rng.choice(dual)
            classes[c] = bimodules.BimoduleClass(
                self.full, self.full,
                [(base, rng.choice(elems)), (base * dual[1], rng.choice(elems))])
        return datum.GradingDatum(self.z4, posets.poset_from_relation(labels, covers),
                                  {v: self.full for v in labels}, classes)

    def _random_datum(self, rng):
        ambient, subs = rng.choice(self.sweep)
        labels, cover_pairs = rng.choice(RANDOM_SHAPES)
        skeleton = posets.poset_from_relation(labels, cover_pairs)
        # keep the cover intersections big for part of the data, so twists
        # have room to act
        pool = [s for s in subs if s.order > 1] * 3 + list(subs)
        big = [s for s in subs if s.order >= 3]
        if big and rng.random() < 0.7:
            core = rng.choice(big)
            pool = [s for s in subs if all(g in s for g in core.generators)]
        blocks = {v: rng.choice(pool) for v in labels}
        elems = list(ambient.elements())
        covers = {}
        for u, w in skeleton.covers():
            chars = characters.dual_group(abelian.intersect(blocks[u], blocks[w]))
            covers[(u, w)] = bimodules.BimoduleClass(
                blocks[u], blocks[w],
                [(chi, rng.choice(elems)) for chi in rng.sample(chars, min(2, len(chars)))])
        return datum.GradingDatum(ambient, skeleton, blocks, covers)

    @staticmethod
    def _partner(rng, d):
        """A relabelled (by a skeleton automorphism) and twisted copy."""
        perm = rng.choice(list(posets.poset_automorphisms(d.skeleton)))
        mu = {v: rng.choice(characters.dual_group(d.blocks[v])) for v in d.skeleton.elements}
        blocks = {perm[v]: d.blocks[v] for v in d.skeleton.elements}
        covers = {(perm[u], perm[w]): bimodules.twist(cls, mu[u], mu[w])
                  for (u, w), cls in d.cover_bimodules.items()}
        return datum.GradingDatum(d.ambient, d.skeleton, blocks, covers)

    @staticmethod
    def _negative(rng, d):
        """Replace one cover character so the twist invariant changes;
        None when no single replacement does."""
        want = twist_invariant(d)
        options = []
        for (u, w), cls in d.cover_bimodules.items():
            present = set(cls.characters())
            for pos in range(len(cls.pairs)):
                for chi in characters.dual_group(cls.middle):
                    if chi not in present:
                        options.append(((u, w), pos, chi))
        rng.shuffle(options)
        for cover, pos, chi in options:
            cls = d.cover_bimodules[cover]
            pairs = list(cls.pairs)
            pairs[pos] = (chi, pairs[pos][1])
            covers = dict(d.cover_bimodules)
            covers[cover] = bimodules.BimoduleClass(cls.left, cls.right, pairs)
            dm = datum.GradingDatum(d.ambient, d.skeleton, d.blocks, covers)
            if twist_invariant(dm) != want:
                return dm
        return None

    @staticmethod
    def _boolean_skeleton(n):
        subsets = [frozenset(s) for k in range(n + 1)
                   for s in itertools.combinations(range(n), k)]
        label = {s: "".join(map(str, sorted(s))) or "e" for s in subsets}
        covers = [(label[s], label[s | {x}]) for s in subsets for x in range(n) if x not in s]
        return posets.poset_from_relation([label[s] for s in subsets], covers)

    def _boolean(self, rng, n, valid):
        """Full Z/4 blocks on B_n with coboundary covers (character
        mu_u / mu_w and degree g_w - g_u): every saturated chain telescopes
        to the same data, so the datum is valid.  An invalid one multiplies
        one cover character by a nontrivial character, which breaks the
        square through that cover."""
        skeleton = self.boolean[n]
        dual = characters.dual_group(self.full)
        elems = list(self.z4.elements())
        mu = {v: rng.choice(dual) for v in skeleton.elements}
        pot = {v: rng.choice(elems) for v in skeleton.elements}
        covers = {(u, w): [mu[u] * mu[w].inverse(), pot[w] - pot[u]]
                  for u, w in skeleton.covers()}
        if not valid:
            bad = rng.choice(sorted(covers))
            covers[bad][0] = covers[bad][0] * rng.choice(dual[1:])
        classes = {c: bimodules.BimoduleClass(self.full, self.full, [tuple(p)])
                   for c, p in covers.items()}
        return datum.GradingDatum(self.z4, skeleton,
                                  {v: self.full for v in skeleton.elements}, classes)

    # -- cases ------------------------------------------------------------

    @staticmethod
    def _iso(d, d2, expected):
        def run(plant):
            flag, witness = datum.grading_iso(d, d2)
            if flag != (expected != plant):
                return False
            return not flag or _witness_holds(d, d2, *witness)
        return run

    @staticmethod
    def _validate(d, expected):
        def run(plant):
            report = datum.validate_datum(d)
            return (report.valid == (expected != plant)
                    and report.checked_covers == len(d.cover_bimodules))
        return run


def _witness_holds(d, d2, alpha, mu):
    """Re-check an isomorphism witness cover by cover."""
    labels = set(d.skeleton.elements)
    if set(alpha) != labels or set(alpha.values()) != set(d2.skeleton.elements):
        return False
    if any(d.blocks[v] != d2.blocks[alpha[v]] for v in labels):
        return False
    if len(d.cover_bimodules) != len(d2.cover_bimodules):
        return False
    for (u, w), cls in d.cover_bimodules.items():
        target = d2.cover_bimodules.get((alpha[u], alpha[w]))
        if target is None:
            return False
        if not bimodules.bimodule_iso(cls, bimodules.twist(target, mu[u], mu[w]))[0]:
            return False
    return True


WORKLOADS = {w.name: w for w in (ProductSweep, VerifyCorpus, Classify)}
