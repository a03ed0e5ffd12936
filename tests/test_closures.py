import random

import pytest

from cayleykit.closures import (DEGREE_BUDGET, BudgetExceededError,
                                ColoredStructure, automorphisms,
                                brute_force_automorphisms, is_automorphism,
                                is_k_closed, k_closure, orbit_coloring)
from cayleykit.perm import PermGroup, Permutation
from cayleykit.zoo import (GroupSpec, frobenius_natural_action,
                           inner_holomorph, regular_representation)


def regular(spec):
    return regular_representation(spec, "left").group


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
