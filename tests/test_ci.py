import hashlib
import itertools
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from cayleykit.blocks import BlockSystem, classify_block_system
from cayleykit.ci import (CiVerdict, TowerResult, align_sylow_orbits,
                          are_conjugate_subgroups, babai_check,
                          block_tower_search, canonical_ratio_patterns,
                          holomorph_witness, partition_transporter,
                          regular_subgroups)
from cayleykit.closures import k_closure
from cayleykit.perm import (TRANSCRIPT_CAP, PermGroup, Permutation,
                            pointwise_stabilizer, sylow_subgroup)
from cayleykit.repro import (_regular_oracle_corpus,
                             dic3_partition_stabilizer, regular_class_scan)
from cayleykit.zoo import GroupSpec, inner_holomorph, regular_representation


def regular(spec):
    return regular_representation(spec, "left").group


class TestConjugacy:
    def test_equal_groups_identity(self):
        R = regular(GroupSpec.cyclic(6))
        c = are_conjugate_subgroups(R, R, R)
        assert c is not None and c.is_identity()

    def test_point_stabilizers_in_s4(self):
        S4 = PermGroup.symmetric(4)
        c = are_conjugate_subgroups(S4, pointwise_stabilizer(S4, [0]),
                                    pointwise_stabilizer(S4, [1]))
        assert c is not None and c.order() == 2  # a transposition works

    def test_conjugator_actually_conjugates(self):
        S4 = PermGroup.symmetric(4)
        R = PermGroup(4, [Permutation([1, 2, 3, 0])])
        T = R.conjugate(Permutation([0, 2, 1, 3]))
        c = are_conjugate_subgroups(S4, R, T)
        got = {g.images for g in R.conjugate(c).elements()}
        assert got == {g.images for g in T.elements()}

    def test_none_certified(self):
        # left and right Frobenius copies in the inner holomorph
        spec = GroupSpec.frobenius(7, 3)
        A = inner_holomorph(spec)
        L = regular_representation(spec, "left").group
        R = regular_representation(spec, "right").group
        transcript = []
        assert are_conjugate_subgroups(A, L, R, transcript=transcript) is None
        assert transcript  # the tried representatives are logged

    def test_transcript_is_bounded(self):
        # a double and a triple transposition: 105 cosets of the first's
        # normalizer in S7, none of them a conjugator
        S7 = PermGroup.symmetric(7)
        H = PermGroup(7, [Permutation.from_cycles(7, [(0, 1), (2, 3)])])
        K = PermGroup(7, [Permutation.from_cycles(7, [(0, 1), (2, 3),
                                                      (4, 5)])])
        transcript = []
        assert are_conjugate_subgroups(S7, H, K, transcript=transcript) \
            is None
        assert len(transcript) == TRANSCRIPT_CAP + 1
        assert transcript[-1] == {"dropped": 105 - TRANSCRIPT_CAP}

    def test_membership_checked(self):
        S4 = PermGroup.symmetric(4)
        S5sub = PermGroup(5, [Permutation([1, 0, 2, 3, 4])])
        with pytest.raises(ValueError):
            are_conjugate_subgroups(S4, S5sub, S5sub)


class TestRegularSubgroups:
    def test_self_class(self):
        R = regular(GroupSpec.cyclic(6))
        assert len(regular_subgroups(R, GroupSpec.cyclic(6))) == 1

    def test_klein_in_s4(self):
        reps = regular_subgroups(PermGroup.symmetric(4),
                                 GroupSpec.elementary_abelian_2(2))
        assert len(reps) == 1 and reps[0].order == 4

    def test_oracle_match_s4(self):
        S4 = PermGroup.symmetric(4)
        specs = [GroupSpec.cyclic(4), GroupSpec.elementary_abelian_2(2)]
        for spec, want in zip(specs, regular_class_scan(S4, specs)):
            assert len(regular_subgroups(S4, spec)) == len(want)

    def test_oracle_scan_per_spec_matches_single_scans(self):
        ambients = {name: (A, specs)
                    for name, A, specs in _regular_oracle_corpus()}
        for name in ("s4", "a4"):
            A, specs = ambients[name]
            assert regular_class_scan(A, specs) \
                == [regular_class_scan(A, [s])[0] for s in specs]

    def test_two_classes_in_degree_20_example(self):
        A = inner_holomorph(GroupSpec.frobenius(5, 4))
        reps = regular_subgroups(A, GroupSpec.dicyclic(5))
        assert len(reps) == 2
        for H in reps:
            assert H.is_regular() and H.order == 20

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            regular_subgroups(PermGroup.symmetric(4), GroupSpec.cyclic(5))

    def test_c2_x_d4_row_is_pinned(self):
        # a non-Frobenius 3-closure where histogram pruning does the work;
        # the representatives, and so the search order, must not change
        spec = GroupSpec.direct_product([GroupSpec.cyclic(2),
                                         GroupSpec.dihedral(4)])
        A = k_closure(inner_holomorph(spec), 3)
        reps = regular_subgroups(A, spec)
        assert A.order == 128 and len(reps) == 15
        gens = [[g.to_json() for g in H.generators] for H in reps]
        digest = hashlib.sha256(json.dumps(gens).encode()).hexdigest()
        assert digest == ("7dc0720d0a68a798586f4020459ff690"
                          "b05b2749123dc29b2b3bf12bc6b16299")


SMALL_SPECS = [GroupSpec.cyclic(4), GroupSpec.elementary_abelian_2(2),
               GroupSpec.cyclic(6), GroupSpec.dihedral(3),
               GroupSpec.cyclic(8), GroupSpec.dihedral(4), GroupSpec.q8(),
               GroupSpec.direct_product([GroupSpec.cyclic(2),
                                         GroupSpec.cyclic(4)]),
               GroupSpec.elementary_abelian_2(3)]
# the oracle grows the whole subgroup lattice: about a second per ambient
# of order 24, a minute for the order-64 holomorph of dihedral(4)
ORACLE_AMBIENT_ORDER = 24


def automorphism_images(spec):
    """Aut(spec) as label maps, found from the generator images that
    extend to a bijective homomorphism."""
    n = spec.size
    gens = spec.generator_labels()
    out = []
    for imgs in itertools.product(range(n), repeat=len(gens)):
        phi = {0: 0}
        todo = [0]
        for x in todo:
            for g, im in zip(gens, imgs):
                y, fy = spec.mult(g, x), spec.mult(im, phi[x])
                if y not in phi:
                    phi[y] = fy
                    todo.append(y)
        if len(set(phi.values())) == n and all(
                phi[spec.mult(a, b)] == spec.mult(phi[a], phi[b])
                for a in range(n) for b in range(n)):
            out.append([phi[x] for x in range(n)])
    return out


@st.composite
def small_ambients(draw):
    """A regular copy of a small spec plus one to three random elements,
    each of S_n or of the spec's holomorph, all relabeled by a random
    permutation."""
    spec = draw(st.sampled_from(SMALL_SPECS))
    n = spec.size
    auts = automorphism_images(spec)
    extra = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            extra.append(Permutation(draw(st.permutations(range(n)))))
            continue
        r = draw(st.integers(0, n - 1))
        a = draw(st.sampled_from(auts))
        extra.append(Permutation([spec.mult(r, a[x]) for x in range(n)]))
    c = Permutation(draw(st.permutations(range(n))))
    cinv = c.inverse()
    gens = list(regular(spec).generators) + extra
    return PermGroup(n, [cinv * g * c for g in gens]), spec


@settings(max_examples=20, deadline=None)
@given(small_ambients())
def test_regular_subgroups_match_oracle(case):
    A, spec = case
    assume(A.order <= ORACLE_AMBIENT_ORDER)
    reps = regular_subgroups(A, spec)
    assert len(reps) == len(regular_class_scan(A, [spec])[0])
    for H, K in itertools.combinations(reps, 2):
        assert are_conjugate_subgroups(A, H, K) is None


class TestBabaiCheck:
    def test_ci_for_structure(self):
        A = k_closure(regular(GroupSpec.cyclic(5)), 2)
        v = babai_check(A, GroupSpec.cyclic(5))
        assert v.status == "ci_for_this_structure" and v.classes == 1

    def test_witness(self):
        A = inner_holomorph(GroupSpec.frobenius(5, 4))
        v = babai_check(A, GroupSpec.dicyclic(5))
        assert v.status == "not_ci_witness" and v.classes == 2
        assert v.witness is not None
        first, second = v.witness
        assert are_conjugate_subgroups(A, first, second) is None

    def test_no_regular_copy(self):
        # a spec with no regular copy at all; the search is exhaustive
        v = babai_check(regular(GroupSpec.cyclic(8)), GroupSpec.q8())
        assert v.status == "no_regular_copy" and v.classes == 0

    def test_witness_certificate_is_pinned(self):
        # the regular-subgroup class representatives, and so the witness
        # generators, must not change under refactoring
        spec = GroupSpec.frobenius(5, 4)
        cert = babai_check(inner_holomorph(spec), spec).to_json()
        digest = hashlib.sha256(
            json.dumps(cert, sort_keys=True).encode()).hexdigest()
        assert digest == ("d069fc356fca42aa616425c4916c96e7"
                          "24ff07e592d90712beae14ad9b70383a")

    def test_json(self):
        v = CiVerdict("no_regular_copy", None, 0, [])
        assert v.to_json()["status"] == "no_regular_copy"


class TestHolomorphWitness:
    def test_abelian_always_conjugate(self):
        for spec in [GroupSpec.cyclic(5), GroupSpec.cyclic(8),
                     GroupSpec.elementary_abelian_2(2)]:
            assert holomorph_witness(spec)["left_right_conjugate"]

    def test_frobenius_witness(self):
        out = holomorph_witness(GroupSpec.frobenius(7, 3))
        assert out == {"holomorph_order": 441, "is_3_closed": True,
                       "left_right_conjugate": False}

    def test_budget(self):
        with pytest.raises(ValueError):
            holomorph_witness(GroupSpec.cyclic(100))


class TestAlignment:
    def test_identity_when_equal(self):
        R = regular(GroupSpec.cyclic(15))
        d = align_sylow_orbits(R, R, 5)
        assert d.is_identity()

    def test_z15_alignment(self):
        R = regular(GroupSpec.cyclic(15))
        # swap two points inside one Sylow-3 orbit so <R, T> stays small
        a, b = sylow_subgroup(R, 3).orbits()[0][:2]
        im = list(range(15))
        im[a], im[b] = im[b], im[a]
        T = R.conjugate(Permutation(im))
        d = align_sylow_orbits(R, T, 5)
        assert d is not None
        joint = PermGroup(15, list(R.generators)
                          + [g for g in T.conjugate(d).generators])
        blocks = BlockSystem(15, sylow_subgroup(R, 5).orbits())
        res = classify_block_system(joint, blocks)
        assert res["is_block_system"] and res["is_normal"]

    def test_requires_odd_prime(self):
        R = regular(GroupSpec.cyclic(12))
        with pytest.raises(ValueError):
            align_sylow_orbits(R, R, 2)

    def test_transporter_none_certified(self):
        G = PermGroup(4, [Permutation([1, 0, 2, 3])])
        src = BlockSystem(4, [[0, 1], [2, 3]])
        tgt = BlockSystem(4, [[0, 2], [1, 3]])
        assert partition_transporter(G, src, tgt) is None


class TestTowerSearch:
    def test_patterns_for_12(self):
        assert canonical_ratio_patterns(12) == {
            (3, 2, 2): None, (4, 3): "dicyclic_quotient"}

    def test_patterns_for_24(self):
        pats = canonical_ratio_patterns(24)
        assert (3, 2, 2, 2) in pats
        assert (2, 3, 2, 2) in pats and (2, 4, 3) in pats and (4, 3, 2) in pats

    def test_patterns_for_60(self):
        pats = canonical_ratio_patterns(60)
        assert (5, 3, 2, 2) in pats and (5, 4, 3) in pats

    def test_z12_self(self):
        R = regular(GroupSpec.cyclic(12))
        res = block_tower_search(R, R)
        assert isinstance(res, TowerResult)
        assert res.ratios == [3, 2, 2]
        assert res.tower[0].is_trivial() and res.tower[-1].is_trivial()

    def test_dic3_conjugate(self):
        R, W = dic3_partition_stabilizer()
        c = W.generators[-1] * W.generators[0]
        res = block_tower_search(R, R.conjugate(c))
        assert isinstance(res, TowerResult)
        assert tuple(res.ratios) in canonical_ratio_patterns(12)

    def test_result_verifies(self):
        R, W = dic3_partition_stabilizer()
        T = R.conjugate(W.generators[-1])
        res = block_tower_search(R, T)
        joint = PermGroup(12, list(R.generators)
                          + list(T.conjugate(res.conjugator).generators))
        for bs in res.tower[1:-1]:
            v = classify_block_system(joint, bs)
            assert v["is_block_system"] and v["is_normal"]

    def test_q8_conjugate_through_common_sylow(self):
        # <R, T> is not a 2-group, so T is first conjugated into a Sylow
        # 2-subgroup grown from R
        R = regular(GroupSpec.q8())
        T = R.conjugate(Permutation([1, 0, 2, 3, 4, 5, 6, 7]))
        res = block_tower_search(R, T)
        assert isinstance(res, TowerResult) and res.ratios == [2, 2, 2]
        assert res.transcript[0]["event"] == "two_group_conjugated"
        joint = PermGroup(8, list(R.generators)
                          + list(T.conjugate(res.conjugator).generators))
        for bs in res.tower[1:-1]:
            v = classify_block_system(joint, bs)
            assert v["is_block_system"] and v["is_normal"]

    def test_rejects_outside_family(self):
        R = regular(GroupSpec.cyclic(9))
        with pytest.raises(ValueError):
            block_tower_search(R, R)

    def test_json(self):
        R = regular(GroupSpec.cyclic(12))
        res = block_tower_search(R, R)
        data = res.to_json()
        assert data["ratios"] == [3, 2, 2]
        assert len(data["tower"]) == 4
