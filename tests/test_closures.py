import functools
import gc
import hashlib
import itertools
import json
import math
import random
import tracemalloc
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cayleykit import closures, perm
from cayleykit.closures import (DEGREE_BUDGET, BudgetExceededError,
                                ColoredStructure, _tuple_codes, automorphisms,
                                brute_force_automorphisms, check_budget,
                                is_automorphism, k_closure, orbit_coloring)
from cayleykit.perm import PermGroup, Permutation, orbit
from cayleykit.zoo import (GroupSpec, frobenius_natural_action,
                           inner_holomorph, regular_representation)


def regular(spec):
    return regular_representation(spec, "left").group


def reference_is_automorphism(S, p):
    return all(S.colors[S.encode(tuple(p(x) for x in S.decode(t)))] == c
               for t, c in enumerate(S.colors))


def random_coloring(rng, n, k, num_colors):
    return ColoredStructure(
        n, k, [rng.randrange(num_colors) for _ in range(n ** k)])


def labeled_coloring(rng, n, k, labels):
    """Color a tuple by its coordinates' labels and its equality pattern,
    so every permutation preserving the labels is an automorphism."""
    table = {}
    colors = []
    for tup in itertools.product(range(n), repeat=k):
        key = (tuple(labels[x] for x in tup),
               tuple(tup.index(x) for x in tup))
        colors.append(table.setdefault(key, rng.randrange(3)))
    return ColoredStructure(n, k, colors)


class TestColoredStructure:
    def test_encode_decode(self):
        S = orbit_coloring(regular(GroupSpec.cyclic(4)), 2)
        for idx in range(16):
            assert S.encode(S.decode(idx)) == idx

    def test_canonical_color_ids(self):
        S = ColoredStructure(2, 1, [7, 3])
        assert S.colors == (0, 1)

    def test_length_check(self):
        with pytest.raises(ValueError):
            ColoredStructure(3, 2, [0] * 8)

    def test_json_roundtrip(self):
        # orbit_coloring numbers its colors by first occurrence already,
        # which _canonical relies on
        S = orbit_coloring(regular(GroupSpec.dihedral(3)), 2)
        assert ColoredStructure(S.degree, S.arity, S.colors) == S


class TestOrbitColoring:
    def test_transitive_group_one_point_color(self):
        S = orbit_coloring(regular(GroupSpec.cyclic(5)), 1)
        assert len(set(S.colors)) == 1

    def test_regular_z4_pair_orbits(self):
        # orbits of Z4 on pairs are the difference classes
        S = orbit_coloring(regular(GroupSpec.cyclic(4)), 2)
        assert len(set(S.colors)) == 4
        assert S.colors[S.encode((0, 1))] == S.colors[S.encode((1, 2))]
        assert S.colors[S.encode((0, 1))] != S.colors[S.encode((1, 0))]

    def test_symmetric_group_pair_orbits(self):
        S = orbit_coloring(PermGroup.symmetric(4), 2)
        assert len(set(S.colors)) == 2  # diagonal and off-diagonal


class TestKernels:
    def test_tuple_action_table_matches_decode(self):
        rng = random.Random(5)
        for n, k in [(1, 3), (2, 1), (4, 2), (5, 3), (7, 3)]:
            S = ColoredStructure(n, k, [0] * n ** k)
            g = Permutation(rng.sample(range(n), n))
            table = list(_tuple_codes(g.images, n, k))
            assert table == [S.encode(tuple(g(x) for x in S.decode(i)))
                             for i in range(n ** k)]

    def test_is_automorphism_matches_reference(self):
        rng = random.Random(9)
        for _ in range(30):
            n, k = rng.randint(1, 6), rng.choice((1, 2, 3))
            labels = [rng.randrange(2) for _ in range(n)]
            S = labeled_coloring(rng, n, k, labels)
            for _ in range(5):
                p = Permutation(rng.sample(range(n), n))
                assert is_automorphism(S, p) \
                    == reference_is_automorphism(S, p)


def reference_orbit_coloring(n, k, gens):
    """Orbit colors by breadth-first search over decoded tuples, numbered
    in order of first occurrence."""
    color = {}
    for start in itertools.product(range(n), repeat=k):
        if start in color:
            continue
        c = color[start] = len(set(color.values()))
        queue = [start]
        for t in queue:
            for g in gens:
                image = tuple(g[x] for x in t)
                if image not in color:
                    color[image] = c
                    queue.append(image)
    return tuple(color[t] for t in itertools.product(range(n), repeat=k))


@st.composite
def generator_sets(draw, max_degree=7):
    """Up to three permutations that each keep the cells of a random
    partition of the points, so trivial and intransitive groups occur."""
    n = draw(st.integers(0, max_degree))
    cells = {}
    for x in range(n):
        cells.setdefault(draw(st.integers(0, 2)), []).append(x)
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        images = list(range(n))
        for cell in cells.values():
            for x, y in zip(cell, draw(st.permutations(cell))):
                images[x] = y
        gens.append(Permutation(images))
    return n, gens


def n_cycle(n):
    return Permutation(list(range(1, n)) + [0])


@settings(max_examples=80, deadline=None)
@given(generator_sets(), st.booleans(), st.sampled_from((1, 2, 3)))
def test_orbit_coloring_matches_reference(group, transitive, k):
    # with an n-cycle appended the group is transitive, so the rows are
    # gathered across one orbit of every point and the stabilizer of 0
    # carries the recursion
    n, gens = group
    if n and transitive:
        gens = gens + [n_cycle(n)]
    S = orbit_coloring(PermGroup(n, gens), k)
    assert S.colors == reference_orbit_coloring(n, k,
                                                [g.images for g in gens])
    # canonical as built: renumbering changes nothing
    assert ColoredStructure(n, k, S.colors) == S
    assert set(S.colors) == set(range(max(S.colors, default=-1) + 1))


@st.composite
def colorings(draw, max_degree=7):
    """Random color tables, raw or derived from random point labels."""
    n = draw(st.integers(1, max_degree))
    k = draw(st.sampled_from((1, 2, 3)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        return random_coloring(rng, n, k, draw(st.integers(1, 3)))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return labeled_coloring(rng, n, k, labels)


@settings(max_examples=40, deadline=None)
@given(colorings())
def test_automorphisms_match_brute_force(S):
    A = automorphisms(S)
    B = brute_force_automorphisms(S)
    assert A.order == B.order
    assert all(B.contains(g) for g in A.generators)
    assert all(A.contains(g) for g in B.generators)


# The oracle before its pruned walk, kept verbatim: it filters all n!
# permutations, and the walk must find the same generators in its order.
def reference_brute_force_automorphisms(S):
    """Filter all n! permutations; oracle for small degrees.

    The group is built from the automorphisms, in filter order, that are
    not in the closure of those kept before them: at most log2 of the
    order many generators.  The filter is streamed: automorphisms are
    counted and the closure grown as they come, none of them kept.  The
    closure must hold exactly as many as were counted, or RuntimeError
    is raised.
    """
    n = S.degree
    if n > 8:
        raise ValueError("brute force oracle limited to degree 8")
    found = 0
    gens = []
    closure = [tuple(range(n))]
    seen = set(closure)
    for p in map(Permutation, itertools.permutations(range(n))):
        if not is_automorphism(S, p):
            continue
        found += 1
        if p.images in seen:
            continue
        # grow the closure by right multiplication: every old element
        # times p, then every new element times every kept generator
        last = [p.images]
        gens += last
        old = len(closure)
        for i, a in enumerate(closure):
            for b in (last if i < old else gens):
                c = tuple([a[x] for x in b])
                if c not in seen:
                    seen.add(c)
                    closure.append(c)
    if len(closure) != found:
        raise RuntimeError(
            f"{found} automorphisms found, but they generate "
            f"{len(closure)} permutations")
    return PermGroup(n, [Permutation(g) for g in gens])


@settings(max_examples=150, deadline=None)
@given(colorings(max_degree=6))
def test_brute_force_walk_matches_the_filter(S):
    B = brute_force_automorphisms(S)
    R = reference_brute_force_automorphisms(S)
    assert B.order == R.order
    assert B.generators == R.generators


# The search before its candidates came from color buckets, kept verbatim:
# it scans every point of the diagonal class and takes the next point by
# min(), and the search must still find its generators in its order.
def reference_automorphisms(S):
    """The full automorphism group of a colored structure.

    Strong generators are found base point by base point: for each level i
    and candidate image y, a depth-first completion search either produces
    an automorphism fixing 0..i-1 and sending i to y, or proves none exists.
    An automorphism keeps the color of each diagonal tuple (x, ..., x), so
    x is only sent to points whose diagonal tuple has x's color.  On an
    orbit coloring of G these point classes are the G-orbits, which are
    the orbits of the automorphism group.
    """
    n, k = S.degree, S.arity
    check_budget(n, k)
    colors = S.colors
    # (x, ..., x) is encoded as x * (1 + n + ... + n^(k-1))
    diagonal = sum(n ** i for i in range(k))
    classes = colors[::diagonal]
    # candidate images sorted ascending, per class
    members = {}
    for x in range(n):
        members.setdefault(classes[x], []).append(x)

    if k == 1:
        def consistent(partial, x, y):
            return colors[x] == colors[y]
    elif k == 2:
        def consistent(partial, x, y):
            for a, b in partial.items():
                if colors[x * n + a] != colors[y * n + b]:
                    return False
                if colors[a * n + x] != colors[b * n + y]:
                    return False
            return colors[x * n + x] == colors[y * n + y]
    else:
        nn = n * n

        def consistent(partial, x, y):
            # for each a, the rows (x, a, .), (a, x, .) and (a, ., x) at
            # the assigned points against the rows of their images
            xs, ys = list(partial) + [x], list(partial.values()) + [y]
            pick_x, pick_y = itemgetter(*xs), itemgetter(*ys)
            for a, fa in zip(xs, ys):
                for s, t, step in (((x * n + a) * n, (y * n + fa) * n, 1),
                                   ((a * n + x) * n, (fa * n + y) * n, 1),
                                   (a * nn + x, fa * nn + y, n)):
                    if pick_x(colors[s:s + n * step:step]) \
                            != pick_y(colors[t:t + n * step:step]):
                        return False
            return True

    def complete(partial, used):
        """Extend a consistent partial map over all points; None if stuck."""
        if len(partial) == n:
            return Permutation(partial[x] for x in range(n))
        x = min(set(range(n)) - set(partial))
        for y in members[classes[x]]:
            if y in used or not consistent(partial, x, y):
                continue
            partial[x] = y
            used.add(y)
            result = complete(partial, used)
            if result is not None:
                return result
            del partial[x]
            used.remove(y)
        return None

    gens = []

    def point_orbit(x):
        return set(orbit(x, gens, lambda y, g: g(y)))

    for i in range(n - 1, -1, -1):
        orb = point_orbit(i)
        fixed = {j: j for j in range(i)}
        for y in members[classes[i]]:
            if y in orb or y <= i or not consistent(fixed, i, y):
                continue
            partial = dict(fixed)
            partial[i] = y
            g = complete(partial, set(partial.values()))
            if g is not None:
                gens.append(g)
                orb = point_orbit(i)
    return PermGroup(n, gens)


def found_generators(search, S):
    """The image tuples a search passes to PermGroup, in the order found
    (PermGroup itself sorts its generators)."""
    with mock.patch.dict(search.__globals__,
                         PermGroup=lambda n, gens, base=None: list(gens)):
        return [g.images for g in search(S)]


@st.composite
def search_inputs(draw):
    """Colorings as above, and orbit colorings of trivial, intransitive
    and transitive groups, on at most 9 points."""
    if draw(st.booleans()):
        return draw(colorings(9))
    n, gens = draw(generator_sets(9))
    if n and draw(st.booleans()):
        gens.append(n_cycle(n))
    return orbit_coloring(PermGroup(n, gens), draw(st.sampled_from((1, 2, 3))))


@settings(max_examples=300, deadline=None)
@given(search_inputs())
def test_automorphisms_find_the_reference_generators(S):
    assert found_generators(automorphisms, S) \
        == found_generators(reference_automorphisms, S)


@functools.cache
def pinned_colorings():
    """Orbit colorings of relabeled groups near the degree budgets, built
    once for every test that reads them."""
    cases = [(regular(GroupSpec.cyclic(252)), 2),
             (regular(GroupSpec.dihedral(100)), 2),
             (regular(GroupSpec.cyclic(64)), 3),
             (regular(GroupSpec.dihedral(24)), 3),
             (regular(GroupSpec.dicyclic(11)), 3),
             (inner_holomorph(GroupSpec.frobenius(5, 4)), 2)]
    rng = random.Random(18)
    out = []
    for G, k in cases:
        c = Permutation(rng.sample(range(G.degree), G.degree))
        out.append(orbit_coloring(G.conjugate(c), k))
    return tuple(out)


def test_closure_colors_are_pinned():
    # taken from the per-point row kernel; the canonical colors, numbered
    # by first occurrence
    colors = [list(S.colors) for S in pinned_colorings()]
    assert hashlib.sha256(json.dumps(colors).encode()).hexdigest() \
        == "2beacff02d0d8bc205c85b6db8961a1bd4119b1be1053a5a9147a489e52c029a"


def test_closure_generators_are_pinned():
    # taken from the reference search; the list of found generators,
    # in order
    found = [[list(g) for g in found_generators(automorphisms, S)]
             for S in pinned_colorings()]
    assert hashlib.sha256(json.dumps(found).encode()).hexdigest() \
        == "6e7656fc2ba9bb0a43242ba9022cede1c9a076f65e5436b90ecc947684645dfe"


def test_k3_coloring_holds_one_copy_of_the_table():
    # the rows are kept as built, not joined into a second, flat table:
    # joining them made the peak 2.2 times the table
    G = regular(GroupSpec.cyclic(64))
    tracemalloc.start()
    try:
        S = orbit_coloring(G, 3)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(S.rows) == 64
    assert peak <= 1.5 * kept


def test_k3_coloring_keeps_one_copy_of_the_first_orbits_labels():
    # a transitive group's first orbit starts the count at 0, so its row
    # is the stabilizer's labels as they are; adding 0 to each made a
    # second tuple of n^2 new ints, and a peak of 1.18 times the table
    G = regular(GroupSpec.cyclic(64))
    tracemalloc.start()
    try:
        S = orbit_coloring(G, 3)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(S.rows) == 64
    assert peak <= 1.12 * kept


@pytest.mark.parametrize("closure", [
    pytest.param(lambda G, k: automorphisms(orbit_coloring(G, k),
                                            G.generators), id="search"),
    pytest.param(k_closure, id="k_closure")])
@pytest.mark.parametrize("n, k", [(64, 3), (252, 2)])
def test_closure_leaves_nothing_for_the_collector(n, k, closure):
    # at the degree budgets: a search closure that calls itself would be a
    # reference cycle, keeping the color table, the buckets and the search
    # state alive after the closure returns, until a full collection.
    # k_closure answers a regular input without the search, so the search
    # is also called directly
    G = regular(GroupSpec.cyclic(n))
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        C = closure(G, k)
        kept = tracemalloc.get_traced_memory()[0]
        garbage = gc.collect()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert garbage == 0
    assert kept <= 0.25 * 2 ** 20
    assert C.order == n


def test_k3_closure_at_128_points(monkeypatch):
    # twice the k = 3 budget, lifted here only
    monkeypatch.setitem(DEGREE_BUDGET, 3, 128)
    G = regular(GroupSpec.cyclic(128))
    S = orbit_coloring(G, 3)
    assert len(S.rows) == 128
    assert all(len(row) == 128 ** 2 for row in S.rows)
    C = automorphisms(S)
    assert C.order == 128
    assert all(C.contains(g) for g in G.generators)


def no_schreier_sims(*args):
    raise AssertionError("Schreier-Sims ran")


def test_closures_keep_the_chain_their_search_found(monkeypatch):
    inputs = [(frobenius_natural_action(31, 30), 2),
              (regular(GroupSpec.cyclic(32)), 1)]
    monkeypatch.setattr(perm._Chain, "schreier_sims", no_schreier_sims)
    for G, k in inputs:
        assert k_closure(G, k).order == math.factorial(G.degree)


def test_closure_chains_are_bsgs():
    # each closure's chain, built on the levels of its search, against
    # Schreier-Sims on the same generators
    rng = random.Random(19)
    for S in pinned_colorings():
        C = automorphisms(S)
        rebuilt = PermGroup(C.degree, C.generators)
        assert C.order == rebuilt.order
        assert all(C.contains(rebuilt.element_at(rng.randrange(C.order)))
                   for _ in range(50))


def test_orbit_labels_build_one_code_table_per_generator(monkeypatch):
    # on regular Z64 at k = 3 the rows of the one orbit are gathered
    # through the code table of the generator that reached each point; a
    # table per point cost 64 calls
    G = regular(GroupSpec.cyclic(64))
    calls = []

    def counting(digit, radix, k):
        calls.append(k)
        return _tuple_codes(digit, radix, k)

    monkeypatch.setattr(closures, "_tuple_codes", counting)
    orbit_coloring(G, 3)
    assert 1 <= len(calls) <= len(G.generators)


class CountingRows(tuple):
    """A row container that counts its lookups: one per row fetched or
    sliced, and one per column read across the rows."""
    lookups = 0

    def __getitem__(self, i):
        CountingRows.lookups += 1
        return tuple.__getitem__(self, i)

    def __iter__(self):
        CountingRows.lookups += 1
        return tuple.__iter__(self)


def test_level_scans_take_candidates_from_buckets(monkeypatch):
    # on regular Z252 at k = 2 every level above 0 has one candidate left,
    # the point itself; scanning the whole diagonal class instead cost
    # 126,008 lookups in all, while the buckets need 760
    S = orbit_coloring(regular(GroupSpec.cyclic(252)), 2)
    S.rows = CountingRows(S.rows)
    monkeypatch.setattr(CountingRows, "lookups", 0)
    assert automorphisms(S).order == 252
    assert CountingRows.lookups < 5_000


@pytest.mark.parametrize("spec,k", [
    (GroupSpec.cyclic(7), 2), (GroupSpec.cyclic(7), 3),
    (GroupSpec.dihedral(3), 2), (GroupSpec.dihedral(3), 3)],
    ids=lambda v: str(v))
@pytest.mark.parametrize("row", ["first", "last"])
def test_forced_completions_reject_a_fresh_color(spec, k, row):
    # on a regular coloring each point has one candidate image, so every
    # completion is forced.  A fresh color in row 0 is met by the first
    # point's checks, one in the last row only by the last point's.
    # Neither tuple is one of the (x, 0, ..., 0) that the candidates are
    # read from, so only the row checks of `consistent` can reject a map.
    # The search must agree with the step-by-step reference and with
    # brute force
    S = orbit_coloring(regular(spec), k)
    t = (0 if row == "first" else S.degree - 1, 1, 2)[:k]
    colors = list(S.colors)
    colors[S.encode(t)] = max(colors) + 1
    T = ColoredStructure(S.degree, k, colors)
    assert found_generators(automorphisms, T) \
        == found_generators(reference_automorphisms, T)
    assert automorphisms(T).order == brute_force_automorphisms(T).order


@settings(max_examples=80, deadline=None)
@given(generator_sets(9), st.booleans(), st.sampled_from((1, 2, 3)))
def test_seeded_closure_is_the_unseeded_one(group, transitive, k):
    # k_closure seeds the search with G's generators; it must find the
    # group the unseeded search finds, and its generators must be strong
    # on the base it returns, as Schreier-Sims on them confirms
    n, gens = group
    if n and transitive:
        gens = gens + [n_cycle(n)]
    G = PermGroup(n, gens)
    C = k_closure(G, k)
    U = automorphisms(orbit_coloring(G, k))
    assert C.order == U.order == PermGroup(n, C.generators).order
    assert all(U.contains(g) for g in C.generators)
    assert all(C.contains(g) for g in U.generators)
    assert all(C.contains(g) for g in G.generators)


REGULAR_SPECS = (GroupSpec.cyclic(12), GroupSpec.dihedral(6),
                 GroupSpec.dicyclic(5), GroupSpec.q8(),
                 GroupSpec.elementary_abelian_2(3), GroupSpec.frobenius(7, 3))


def relabeled(G, seed):
    rng = random.Random(seed)
    return G.conjugate(Permutation(rng.sample(range(G.degree), G.degree)))


def raising(*args):
    raise AssertionError("the coloring or the search ran")


@pytest.mark.parametrize("G", [
    pytest.param(regular(spec), id=repr(spec)) for spec in REGULAR_SPECS
] + [
    pytest.param(relabeled(regular(spec), seed), id=f"relabeled-{spec!r}")
    for seed, spec in enumerate(REGULAR_SPECS)
] + [pytest.param(PermGroup(6, [Permutation([1, 2, 0, 4, 5, 3])]),
                  id="semiregular-(012)(345)")])
@pytest.mark.parametrize("k", [2, 3])
def test_regular_closures_run_no_completion(monkeypatch, G, k):
    # a semiregular group is 2-closed, so k-closed for k >= 2: its own
    # generators fill every level's orbit and the search adds nothing.
    # Its point stabilizers are trivial, so each point has one candidate
    # image and every completion the search starts succeeds: a count of
    # the Permutations it builds counts its completions.  Unseeded, the
    # search makes at least one
    S = orbit_coloring(G, k)
    U = automorphisms(S, G.generators)
    if G.is_transitive():
        # a regular input is answered from its chain, or else from one
        # listing that leaves no chain behind: the group, generators and
        # base the search finds, with neither run
        unbuilt = PermGroup(G.degree, G.generators)
        assert G.order == G.degree
        with monkeypatch.context() as m:
            m.setattr(closures, "orbit_coloring", raising)
            m.setattr(closures, "automorphisms", raising)
            closed = [k_closure(H, k) for H in (unbuilt, G)]
        assert "_chain" not in vars(unbuilt)
        for C in closed:
            assert "_chain" not in vars(C)
            assert (C.generators, C._chain.base, C.order) \
                == (U.generators, U._chain.base, U.order)
    assert k_closure(G, k).generators == G.generators
    calls = []

    def counting(images):
        calls.append(len(images))
        return Permutation(images)

    monkeypatch.setattr(closures, "Permutation", counting)
    assert automorphisms(S, G.generators).order == G.order
    assert calls == []
    assert automorphisms(S).order == G.order
    assert calls


@pytest.mark.parametrize("G, k", [
    (PermGroup(6, [Permutation([1, 2, 0, 4, 5, 3])]), 2),
    (PermGroup(6, [Permutation([1, 2, 0, 4, 5, 3])]), 3),
    (relabeled(regular(GroupSpec.dihedral(6)), 1), 1)],
    ids=["semiregular-k2", "semiregular-k3", "regular-k1"])
def test_other_closures_color_once(monkeypatch, G, k):
    # a semiregular intransitive input is k-closed for k >= 2 too, but its
    # closure comes from the search; a regular input's 1-closure is S_n
    colorings = []

    def counted(*args):
        colorings.append(args)
        return orbit_coloring(*args)

    monkeypatch.setattr(closures, "orbit_coloring", counted)
    C = k_closure(G, k)
    assert len(colorings) == 1
    assert C.order == (math.factorial(G.degree) if k == 1 else G.order)


class TestAutomorphisms:
    def test_is_automorphism(self):
        G = regular(GroupSpec.cyclic(5))
        S = orbit_coloring(G, 2)
        assert is_automorphism(S, G.generators[0])
        assert not is_automorphism(S, Permutation([1, 0, 2, 3, 4]))

    @pytest.mark.parametrize("spec,k", [
        (GroupSpec.cyclic(5), 2), (GroupSpec.cyclic(6), 2),
        (GroupSpec.cyclic(6), 3), (GroupSpec.dihedral(3), 2),
        (GroupSpec.dihedral(3), 3)] + [
        (spec, k)
        for spec in (GroupSpec.cyclic(8), GroupSpec.q8(),
                     GroupSpec.dihedral(4), GroupSpec.elementary_abelian_2(3))
        for k in (2, 3)],
        ids=lambda v: str(v))
    def test_matches_brute_force_regular(self, spec, k):
        S = orbit_coloring(regular(spec), k)
        assert automorphisms(S).order == brute_force_automorphisms(S).order

    def test_matches_brute_force_random(self):
        rng = random.Random(11)
        for _ in range(6):
            n = rng.randint(4, 7)
            gens = [Permutation(rng.sample(range(n), n)) for _ in range(2)]
            G = PermGroup(n, gens)
            for k in (1, 2, 3):
                S = orbit_coloring(G, k)
                assert automorphisms(S).order \
                    == brute_force_automorphisms(S).order

    def test_brute_force_keeps_few_generators(self):
        # every permutation preserves a one-color coloring, so Aut is S7
        B = brute_force_automorphisms(ColoredStructure(7, 1, [0] * 7))
        assert B.order == 5040
        assert len(B.generators) <= 12

    def test_brute_force_raises_when_the_filter_is_not_a_group(
            self, monkeypatch):
        # a walk that yields the identity and one 3-cycle but not its
        # square: the kept generator closes to three permutations, not two
        monkeypatch.setattr(closures, "_color_preserving",
                            lambda S: iter([(0, 1, 2, 3), (1, 2, 0, 3)]))
        with pytest.raises(RuntimeError, match="generate 3"):
            brute_force_automorphisms(ColoredStructure(4, 1, [0] * 4))

    def test_brute_force_checks_each_generator(self, monkeypatch):
        # a walk that lets a color change through: (0 3) swaps the one
        # point of color 1 with a point of color 0
        monkeypatch.setattr(closures, "_color_preserving",
                            lambda S: iter([(0, 1, 2, 3), (3, 1, 2, 0)]))
        with pytest.raises(RuntimeError, match="changes a color"):
            brute_force_automorphisms(ColoredStructure(4, 1, [0, 0, 0, 1]))

    def test_brute_force_leaves_no_garbage(self):
        # the walk lists all 7! permutations; none of them may be kept
        # alive by a reference cycle until the collector runs
        S = ColoredStructure(7, 1, [0] * 7)
        gc.collect()
        gc.disable()
        try:
            B = brute_force_automorphisms(S)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert B.order == 5040

    def test_degree_zero(self):
        for k in (1, 2, 3):
            S = ColoredStructure(0, k, [])
            assert automorphisms(S).order == 1
            assert brute_force_automorphisms(S).order == 1

    def test_elements_are_automorphisms(self):
        S = orbit_coloring(regular(GroupSpec.q8()), 2)
        A = automorphisms(S)
        for g in A.generators:
            assert is_automorphism(S, g)


class TestKClosure:
    def test_contains_original(self):
        for spec in [GroupSpec.cyclic(10), GroupSpec.dicyclic(3)]:
            G = regular(spec)
            for k in (2, 3):
                C = k_closure(G, k)
                assert all(C.contains(g) for g in G.generators)

    def test_closure_chain(self):
        G = regular(GroupSpec.dihedral(5))
        k3 = k_closure(G, 3)
        k2 = k_closure(G, 2)
        assert all(k2.contains(g) for g in k3.generators)

    def test_one_closure_is_full_symmetric_when_transitive(self):
        G = regular(GroupSpec.cyclic(5))
        assert k_closure(G, 1).order == 120

    def test_frobenius_natural_2_closed(self):
        G = frobenius_natural_action(7, 3)
        assert k_closure(G, 2).order == G.order

    def test_holomorph_3_closed_not_2_closed(self):
        A = inner_holomorph(GroupSpec.frobenius(5, 4))
        assert k_closure(A, 3).order == A.order
        assert k_closure(A, 2).order != A.order

    def test_budget(self):
        G = regular(GroupSpec.cyclic(70))
        with pytest.raises(BudgetExceededError):
            k_closure(G, 3)

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            orbit_coloring(regular(GroupSpec.cyclic(4)), 4)


def test_default_budgets():
    assert DEGREE_BUDGET[2] == 256 and DEGREE_BUDGET[3] == 64
    assert DEGREE_BUDGET[1] == 32
