import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from cayleykit import perm
from cayleykit.blocks import (BlockSystem, _kernel_generators,
                              action_on_blocks, all_block_systems,
                              block_restriction, classify_block_system,
                              minimal_block_containing, pullback_system,
                              refines, verify_tower)
from cayleykit.perm import PermGroup, Permutation
from cayleykit.repro import invariant_partition_scan
from cayleykit.zoo import (GroupSpec, frobenius_natural_action,
                           inner_holomorph, regular_representation)


def regular(spec):
    return regular_representation(spec, "left").group


def cyc(n):
    return regular(GroupSpec.cyclic(n))


class TestBlockSystem:
    def test_canonical_ordering(self):
        bs = BlockSystem(4, [[3, 1], [2, 0]])
        assert bs.blocks == ((0, 2), (1, 3))

    def test_rejects_uneven_cells(self):
        with pytest.raises(ValueError):
            BlockSystem(4, [[0], [1, 2, 3]])

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            BlockSystem(4, [[0, 1], [1, 2]])

    def test_json_roundtrip(self):
        bs = BlockSystem(6, [[0, 3], [1, 4], [2, 5]])
        assert BlockSystem(**bs.to_json()) == bs

    def test_apply(self):
        bs = BlockSystem(4, [[0, 1], [2, 3]])
        p = Permutation([2, 3, 0, 1])
        assert bs.apply(p) == bs


class TestMinimalBlocks:
    def test_z6_minimal_systems(self):
        systems = all_block_systems(cyc(6))
        sizes = sorted(bs.block_size for bs in systems)
        assert sizes == [2, 3]

    def test_minimal_block_containing(self):
        G = cyc(6)
        bs = minimal_block_containing(G, 0, 3)
        assert bs.block_size == 2  # cosets of the subgroup generated by 3
        assert minimal_block_containing(G, 0, 2).block_size == 3

    def test_prime_degree_is_primitive(self):
        assert all_block_systems(cyc(5)) == []

    def test_requires_transitive(self):
        G = PermGroup(4, [Permutation([1, 0, 2, 3])])
        with pytest.raises(ValueError):
            minimal_block_containing(G, 0, 1)


class TestAllBlockSystems:
    def test_z12_block_sizes(self):
        sizes = sorted(bs.block_size for bs in all_block_systems(cyc(12)))
        assert sizes == [2, 3, 4, 6]

    def test_matches_partition_scan_on_corpus(self):
        for spec in [GroupSpec.cyclic(8), GroupSpec.q8(),
                     GroupSpec.dihedral(3),
                     GroupSpec.elementary_abelian_2(3)]:
            G = regular(spec)
            assert all_block_systems(G) == invariant_partition_scan(G)

    def test_s4_natural(self):
        assert all_block_systems(PermGroup.symmetric(4)) == []

    def test_one_block_system_built_per_system(self, monkeypatch):
        # the search keeps systems as label tuples: a BlockSystem is built
        # for each system returned, and for nothing else
        groups = [cyc(12), regular(GroupSpec.dicyclic(3)),
                  regular(GroupSpec.elementary_abelian_2(3)),
                  inner_holomorph(GroupSpec.q8()), PermGroup.symmetric(4)]
        built = []
        init = BlockSystem.__init__

        def counted(self, degree, blocks):
            built.append(self)
            init(self, degree, blocks)

        monkeypatch.setattr(BlockSystem, "__init__", counted)
        for G in groups:
            built.clear()
            systems = all_block_systems(G)
            assert len(built) == len(systems)
        assert len(systems) == 0 and len(all_block_systems(cyc(12))) == 4

    def test_corpus_digest(self):
        # every system of 67 groups, pinned before the search was rewritten
        groups = []
        for n in range(1, 33):
            for m in range(1, 33):
                if 2 * n * m <= 32:
                    groups.append(regular(GroupSpec.direct_product(
                        [GroupSpec.cyclic(n), GroupSpec.dihedral(m)])))
                if m >= 2 and m % 3 and 4 * n * m <= 32:
                    groups.append(regular(GroupSpec.direct_product(
                        [GroupSpec.cyclic(n), GroupSpec.dicyclic(m)])))
        assert len(groups) == 59
        groups += [
            PermGroup.symmetric(4),
            PermGroup(4, [Permutation([1, 2, 3, 0]),
                          Permutation([2, 1, 0, 3])]),  # D8
            PermGroup(4, [Permutation([1, 2, 0, 3]),
                          Permutation([1, 0, 3, 2])]),  # A4
            PermGroup(6, [Permutation([1, 0, 2, 3, 4, 5]),
                          Permutation([2, 3, 4, 5, 0, 1]),
                          Permutation([2, 3, 0, 1, 4, 5])]),  # S2 wr S3
            inner_holomorph(GroupSpec.q8()),
            inner_holomorph(GroupSpec.dihedral(4)),
            frobenius_natural_action(5, 4),
            frobenius_natural_action(7, 3),
        ]
        systems = [[bs.to_json() for bs in all_block_systems(G)]
                   for G in groups]
        assert sum(map(len, systems)) == 964
        digest = hashlib.sha256(json.dumps(systems).encode()).hexdigest()
        assert digest.startswith("2cdc8a411954fb15")


class TestRefinement:
    def test_refines(self):
        fine = BlockSystem(12, [[i, i + 6] for i in range(6)])
        coarse = BlockSystem(12, [[i, i + 3, i + 6, i + 9] for i in range(3)])
        assert refines(fine, coarse)
        assert not refines(coarse, fine)

    def test_quotient_and_pullback_inverse(self):
        fine = BlockSystem(12, [[i, i + 6] for i in range(6)])
        coarse = BlockSystem(12, [[i, i + 3, i + 6, i + 9] for i in range(3)])
        # the coarse cells, as sets of fine-cell indices
        q = BlockSystem(6, [[0, 3], [1, 4], [2, 5]])
        assert pullback_system(q, fine) == coarse


class TestFixAndAction:
    def d8(self):
        return PermGroup(4, [Permutation([1, 2, 3, 0]),
                             Permutation([2, 1, 0, 3])])

    def test_kernel_generators_match_filtered_kernel(self):
        cases = [(self.d8(), BlockSystem(4, [[0, 2], [1, 3]]))]
        for spec in (GroupSpec.cyclic(12), GroupSpec.dicyclic(3)):
            G = regular_representation(spec, "left").group
            cases.extend((G, bs) for bs in all_block_systems(G))
        # S2 wr S3: the kernel on its three blocks has order 8
        wreath = PermGroup(6, [Permutation([1, 0, 2, 3, 4, 5]),
                               Permutation([2, 3, 4, 5, 0, 1]),
                               Permutation([2, 3, 0, 1, 4, 5])])
        cases.append((wreath, BlockSystem(6, [[0, 1], [2, 3], [4, 5]])))
        for G, bs in cases:
            kept = [g for g in G.elements()
                    if all(tuple(sorted(g(x) for x in cell)) == cell
                           for cell in bs.blocks)]
            kernel = PermGroup(G.degree, _kernel_generators(G, bs))
            assert kernel == PermGroup(G.degree, kept)
        assert PermGroup(4, _kernel_generators(*cases[0])).order == 4
        assert PermGroup(6, _kernel_generators(*cases[-1])).order == 8

    def test_block_action_image(self):
        G = cyc(6)
        bs = BlockSystem(6, [[0, 2, 4], [1, 3, 5]])
        act = action_on_blocks(G, bs)
        assert act.group.order == 2

    def test_preimage_roundtrip(self):
        G = cyc(12)
        bs = BlockSystem(12, [[i, i + 6] for i in range(6)])
        act = action_on_blocks(G, bs)
        for g in G.generators:
            q = act.image(g)
            lift = act.preimage(q)
            assert act.image(lift) == q
        # the image is cyclic, so it holds no transposition of two blocks
        swap = Permutation([1, 0, 2, 3, 4, 5])
        assert act.preimage(swap) is None

    def test_one_chain_per_classification_and_preimage(self, monkeypatch):
        # the kernel and the preimage are read off one Schreier-Sims
        # chain of G on its points and its blocks
        G = inner_holomorph(GroupSpec.dicyclic(3))
        bs = all_block_systems(G)[0]
        act = action_on_blocks(G, bs)
        q = next(q for q in map(act.image, G.generators)
                 if not q.is_identity())
        builds = []
        build = perm._Chain.schreier_sims

        def counted(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(perm._Chain, "schreier_sims", counted)
        assert classify_block_system(G, bs)["is_block_system"]
        assert len(builds) == 1
        assert act.image(act.preimage(q)) == q
        assert len(builds) == 2

    def test_block_restriction(self):
        G = cyc(6)
        H = block_restriction(G, (0, 2, 4))
        assert H.order == 3 and H.degree == 3

    def test_block_restriction_rejects_a_non_block(self):
        # the 6-cycle maps {0, 1} to {1, 2}, which meets it in one point
        with pytest.raises(ValueError, match="not a block"):
            block_restriction(cyc(6), (0, 1))

    def test_block_restriction_lists_no_group(self, monkeypatch):
        # Schreier's lemma over the images of B reads generators only:
        # no element of G is listed and no chain is built
        groups = [cyc(12), regular(GroupSpec.dicyclic(3)),
                  inner_holomorph(GroupSpec.q8()),
                  frobenius_natural_action(7, 3),
                  PermGroup(6, [Permutation([1, 0, 2, 3, 4, 5]),
                                Permutation([2, 3, 4, 5, 0, 1]),
                                Permutation([2, 3, 0, 1, 4, 5])])]
        cases = [(G, bs.blocks[0]) for G in groups
                 for bs in all_block_systems(G)]
        assert len(cases) == 15

        def refused(*args, **kwargs):
            raise AssertionError("a group was listed or a chain built")

        monkeypatch.setattr(perm._Chain, "elements", refused)
        monkeypatch.setattr(perm._Chain, "schreier_sims",
                            classmethod(refused))
        restrictions = [block_restriction(G, B) for G, B in cases]
        monkeypatch.undo()
        for (G, B), H in zip(cases, restrictions):
            assert {h.images for h in H.elements()} \
                == listed_restriction(G, B)


class TestClassifyAndTower:
    def test_classify_normal(self):
        G = cyc(6)
        res = classify_block_system(G, [[0, 3], [1, 4], [2, 5]])
        assert res == {"is_block_system": True, "is_normal": True}

    def test_classify_non_block(self):
        res = classify_block_system(PermGroup.symmetric(4), [[0, 1], [2, 3]])
        assert not res["is_block_system"]

    def test_classify_non_normal(self):
        # S3 x S3 acting with a swap: blocks of 3, kernel not transitive
        a = Permutation([1, 2, 0, 3, 4, 5])
        b = Permutation([1, 0, 2, 3, 4, 5])
        s = Permutation([3, 4, 5, 0, 1, 2])
        G = PermGroup(6, [a, b, s])
        res = classify_block_system(G, [[0, 1, 2], [3, 4, 5]])
        assert res["is_block_system"] and res["is_normal"]
        # non-normal: size-2 blocks of regular D6 come from a reflection
        # subgroup with trivial core
        d6 = regular(GroupSpec.dihedral(3))
        small = [bs for bs in all_block_systems(d6) if bs.block_size == 2]
        assert small
        for bs in small:
            res = classify_block_system(d6, bs)
            assert res["is_block_system"] and not res["is_normal"]

    def test_verify_tower_z12(self):
        G = cyc(12)
        t = [BlockSystem.singletons(12),
             BlockSystem(12, [[i, i + 6] for i in range(6)]),
             BlockSystem(12, [[i, i + 3, i + 6, i + 9] for i in range(3)]),
             BlockSystem.one_block(12)]
        res = verify_tower(G, t)
        assert res["m_step"] and res["normal"]
        assert res["index_sequence"] == [2, 2, 3]

    def test_verify_tower_builds_chains_for_nontrivial_systems_only(
            self, monkeypatch):
        # the singletons are always normal, and one block is normal iff G
        # is transitive: only the two middle systems of the Z12 tower need
        # a chain of G on its points and blocks
        builds = []
        build = perm._Chain.schreier_sims

        def counted(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(perm._Chain, "schreier_sims", counted)
        t = [BlockSystem.singletons(12),
             BlockSystem(12, [[i, i + 6] for i in range(6)]),
             BlockSystem(12, [[i, i + 3, i + 6, i + 9] for i in range(3)]),
             BlockSystem.one_block(12)]
        assert verify_tower(cyc(12), t)["normal"]
        assert len(builds) == 2
        H = PermGroup(4, [Permutation([1, 0, 2, 3])])
        assert classify_block_system(H, BlockSystem.singletons(4)) \
            == {"is_block_system": True, "is_normal": True}
        assert classify_block_system(H, BlockSystem.one_block(4)) \
            == {"is_block_system": True, "is_normal": False}
        assert len(builds) == 2

    def test_degree_mismatch(self):
        S4 = PermGroup.symmetric(4)
        larger = BlockSystem(6, [[0, 1], [2, 3], [4, 5]])
        smaller = BlockSystem(2, [[0], [1]])
        for G, bs in ((S4, larger), (PermGroup.symmetric(6), smaller)):
            for op in (classify_block_system, action_on_blocks):
                with pytest.raises(ValueError, match="degree mismatch"):
                    op(G, bs)

    def test_verify_tower_broken_nesting(self):
        G = cyc(12)
        t = [BlockSystem(12, [[i, i + 3, i + 6, i + 9] for i in range(3)]),
             BlockSystem(12, [[i, i + 6] for i in range(6)])]
        res = verify_tower(G, t)
        assert not res["m_step"] and res["broken_at"] == 1

    def test_verify_tower_breaks_at_a_wrong_degree_or_a_non_block(self):
        # neither is raised: the tower is reported broken at that system
        G = cyc(12)
        pairs = BlockSystem(12, [[i, i + 6] for i in range(6)])
        adjacent = BlockSystem(12, [[2 * i, 2 * i + 1] for i in range(6)])
        for wrong in (BlockSystem.singletons(6), adjacent):
            res = verify_tower(G, [pairs, wrong])
            assert res == {"m_step": False, "normal": False,
                           "index_sequence": [], "broken_at": 1}


@st.composite
def transitive_groups(draw):
    """An n-cycle plus up to two random permutations, n <= 8."""
    n = draw(st.integers(1, 8))
    cycle = Permutation([(x + 1) % n for x in range(n)])
    extra = draw(st.lists(st.permutations(list(range(n))), max_size=2))
    return PermGroup(n, [cycle] + [Permutation(p) for p in extra])


@settings(max_examples=100, deadline=None)
@given(transitive_groups())
def test_block_systems_match_partition_scan(G):
    assert all_block_systems(G) == invariant_partition_scan(G)


def brute_force_is_normal(G, bs):
    """The kernel on the blocks, filtered from every element of G, is
    transitive on each block."""
    kernel = [g for g in G.elements()
              if all(tuple(sorted(g(x) for x in cell)) == cell
                     for cell in bs.blocks)]
    return all({g(cell[0]) for g in kernel} == set(cell)
               for cell in bs.blocks)


@settings(max_examples=100, deadline=None)
@given(transitive_groups())
def test_normality_matches_filtered_kernel(G):
    for bs in all_block_systems(G):
        assert classify_block_system(G, bs) == {
            "is_block_system": True,
            "is_normal": brute_force_is_normal(G, bs)}


def listed_restriction(G, B):
    """The image tuples of the setwise stabilizer of B on B, relabeled by
    position in sorted B, filtered from every element of G; ValueError
    when an element moves B onto a set that meets B in part."""
    B = sorted(B)
    where = {x: i for i, x in enumerate(B)}
    out = set()
    for g in G.elements():
        image = {g(x) for x in B}
        if image == set(B):
            out.add(tuple(where[g(x)] for x in B))
        elif image & set(B):
            raise ValueError("B is not a block of G")
    return out


@st.composite
def imprimitive_groups(draw):
    """The n-cycle, n <= 12, and up to two permutations that keep its
    classes mod d for a divisor d of n.  Each moves the class of x, r,
    to e * r + t mod d with e = 1 or -1, and shifts x within its class
    by an amount chosen for r; so the group lies in C_k wr D_d, k = n / d,
    of order at most 768."""
    n = draw(st.integers(1, 12))
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    k = n // d
    gens = [Permutation([(x + 1) % n for x in range(n)])]
    for _ in range(draw(st.integers(0, 2))):
        e, t = draw(st.sampled_from([1, -1])), draw(st.integers(0, d - 1))
        shifts = draw(st.lists(st.integers(0, k - 1), min_size=d,
                               max_size=d))
        gens.append(Permutation(
            ((x // d + shifts[x % d]) % k) * d + (e * (x % d) + t) % d
            for x in range(n)))
    return PermGroup(n, gens)


@settings(max_examples=100, deadline=None)
@given(st.one_of(imprimitive_groups(), transitive_groups()))
def test_restriction_matches_the_listed_stabilizer(G):
    for bs in all_block_systems(G):
        for B in bs.blocks:
            H = block_restriction(G, B)
            assert H.degree == len(B)
            assert {h.images for h in H.elements()} \
                == listed_restriction(G, B)


@settings(max_examples=100, deadline=None)
@given(imprimitive_groups(), st.data())
def test_restriction_to_a_random_set(G, data):
    # a random set of two points or more, and not all, is mostly not a
    # block, and then both raise
    n = G.degree
    low, high = (2, n - 1) if n > 2 else (1, n)
    B = data.draw(st.sets(st.integers(0, n - 1), min_size=low,
                          max_size=high))
    try:
        want = listed_restriction(G, B)
    except ValueError:
        with pytest.raises(ValueError, match="not a block"):
            block_restriction(G, B)
    else:
        assert {h.images for h in block_restriction(G, B).elements()} \
            == want
