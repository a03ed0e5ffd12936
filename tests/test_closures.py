import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cayleykit import closures
from cayleykit.closures import (DEGREE_BUDGET, BudgetExceededError,
                                ColoredStructure, _tuple_codes, automorphisms,
                                brute_force_automorphisms, is_automorphism,
                                is_k_closed, k_closure, orbit_coloring)
from cayleykit.perm import PermGroup, Permutation
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
        S = orbit_coloring(regular(GroupSpec.dihedral(3)), 2)
        assert ColoredStructure.from_json(S.to_json()) == S


class TestOrbitColoring:
    def test_transitive_group_one_point_color(self):
        S = orbit_coloring(regular(GroupSpec.cyclic(5)), 1)
        assert S.num_colors == 1

    def test_regular_z4_pair_orbits(self):
        # orbits of Z4 on pairs are the difference classes
        S = orbit_coloring(regular(GroupSpec.cyclic(4)), 2)
        assert S.num_colors == 4
        assert S.colors[S.encode((0, 1))] == S.colors[S.encode((1, 2))]
        assert S.colors[S.encode((0, 1))] != S.colors[S.encode((1, 0))]

    def test_symmetric_group_pair_orbits(self):
        S = orbit_coloring(PermGroup.symmetric(4), 2)
        assert S.num_colors == 2  # diagonal and off-diagonal


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
def generator_sets(draw):
    """Up to three permutations that each keep the cells of a random
    partition of the points, so trivial and intransitive groups occur."""
    n = draw(st.integers(0, 7))
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


@settings(max_examples=60, deadline=None)
@given(generator_sets(), st.sampled_from((1, 2, 3)))
def test_orbit_coloring_matches_reference(group, k):
    n, gens = group
    S = orbit_coloring(PermGroup(n, gens), k)
    assert S.colors == reference_orbit_coloring(n, k,
                                                [g.images for g in gens])


@st.composite
def colorings(draw):
    """Random color tables, raw or derived from random point labels."""
    n = draw(st.integers(1, 7))
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


class TestAutomorphisms:
    def test_is_automorphism(self):
        G = regular(GroupSpec.cyclic(5))
        S = orbit_coloring(G, 2)
        assert is_automorphism(S, G.generators[0])
        assert not is_automorphism(S, Permutation([1, 0, 2, 3, 4]))

    @pytest.mark.parametrize("spec,k", [
        (GroupSpec.cyclic(5), 2), (GroupSpec.cyclic(6), 2),
        (GroupSpec.cyclic(6), 3), (GroupSpec.dihedral(3), 2),
        (GroupSpec.dihedral(3), 3)],
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
        # a filter that keeps the identity and one 3-cycle but not its
        # square: the kept generator closes to three permutations, not two
        keep = {(0, 1, 2, 3), (1, 2, 0, 3)}
        monkeypatch.setattr(closures, "is_automorphism",
                            lambda S, p: p.images in keep)
        with pytest.raises(RuntimeError, match="generate 3"):
            brute_force_automorphisms(ColoredStructure(4, 1, [0] * 4))

    def test_degree_zero(self):
        for k in (1, 2, 3):
            assert automorphisms(ColoredStructure(0, k, [])).order == 1

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
        assert is_k_closed(G, 2)

    def test_holomorph_3_closed_not_2_closed(self):
        A = inner_holomorph(GroupSpec.frobenius(5, 4))
        assert is_k_closed(A, 3)
        assert not is_k_closed(A, 2)

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
