import hashlib
import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cayleykit import ci, perm
from cayleykit.blocks import (BlockSystem, all_block_systems,
                              classify_block_system)
from cayleykit.ci import (CiVerdict, TowerResult, _semiregular_order,
                          align_sylow_orbits, are_conjugate_subgroups,
                          babai_check,
                          block_tower_search, canonical_ratio_patterns,
                          holomorph_witness, partition_transporter,
                          regular_subgroups)
from cayleykit.closures import BudgetExceededError, k_closure
from cayleykit.perm import (BRUTE_FORCE_CAP, TRANSCRIPT_CAP,
                            CapExceededError, PermGroup, Permutation,
                            sylow_subgroup)
from cayleykit.repro import (_regular_oracle_corpus,
                             dic3_partition_stabilizer, regular_class_scan)
from cayleykit.zoo import (GroupSpec, cor2_groups, inner_holomorph,
                           regular_representation)


def regular(spec):
    return regular_representation(spec, "left").group


def c2_x_d4_row():
    """A non-Frobenius 3-closure where histogram pruning does the work."""
    spec = GroupSpec.direct_product([GroupSpec.cyclic(2),
                                     GroupSpec.dihedral(4)])
    return k_closure(inner_holomorph(spec), 3), spec


def q8_pair():
    """Regular Q8 and a conjugate T with <R, T> not a 2-group, so the
    tower search conjugates T into a Sylow 2-subgroup grown from R."""
    R = regular(GroupSpec.q8())
    return R, R.conjugate(Permutation([1, 0, 2, 3, 4, 5, 6, 7]))


def frobenius_row(p, n):
    spec = GroupSpec.frobenius(p, n)
    return inner_holomorph(spec), spec


class TestConjugacy:
    def test_equal_groups_identity(self):
        R = regular(GroupSpec.cyclic(6))
        c = are_conjugate_subgroups(R, R, R)
        assert c is not None and c.is_identity()

    def test_point_stabilizers_in_s4(self):
        S4 = PermGroup.symmetric(4)
        # the stabilizers of the points 0 and 1
        c = are_conjugate_subgroups(
            S4, PermGroup(4, [Permutation([0, 2, 1, 3]),
                              Permutation([0, 2, 3, 1])]),
            PermGroup(4, [Permutation([2, 1, 0, 3]),
                          Permutation([2, 1, 3, 0])]))
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

    def test_regular_pair_over_the_ambient_cap_is_certified(self):
        # <G1, G2> has order 1055^2, over the cap that the class walk
        # keeps; G1 is cyclic, so the candidates are the 840 images of a
        # generator among the elements of order 1055
        G1, G2 = cor2_groups(211, 5, 0, 1)
        A = PermGroup(1055, list(G1.generators) + list(G2.generators))
        transcript = []
        assert are_conjugate_subgroups(A, G1, G2, transcript) is None
        assert A.order == 1055 ** 2 > BRUTE_FORCE_CAP
        assert sum(e.get("dropped", 1) for e in transcript) == 840


@st.composite
def conjugacy_cases(draw):
    """A random group A of degree 3 to 6 on two or three generators and
    two subgroups R, T of A, each generated by one or two elements of A;
    half the time T is a conjugate of R by an element of A."""
    n = draw(st.integers(3, 6))
    perms = st.permutations(range(n)).map(Permutation)
    A = PermGroup(n, draw(st.lists(perms, min_size=2, max_size=3)))
    elems = st.sampled_from(A.elements())
    R = PermGroup(n, draw(st.lists(elems, min_size=1, max_size=2)))
    if draw(st.booleans()):
        T = R.conjugate(draw(elems))
    else:
        T = PermGroup(n, draw(st.lists(elems, min_size=1, max_size=2)))
    return A, R, T


@settings(max_examples=100, deadline=None)
@given(conjugacy_cases())
def test_conjugacy_matches_brute_force(case):
    A, R, T = case
    Rkeys = {g.images for g in R.elements()}
    Tkeys = {g.images for g in T.elements()}

    def maps_into(c, keys):
        cinv = c.inverse()
        return all((cinv * r * c).images in keys for r in R.generators)

    elems = A.elements()
    conjugate = R.order == T.order and any(maps_into(c, Tkeys)
                                           for c in elems)
    transcript = []
    got = are_conjugate_subgroups(A, R, T, transcript=transcript)
    assert (got is not None) == conjugate
    if got is not None:
        assert A.contains(got)
        assert {g.images for g in R.conjugate(got).elements()} == Tkeys
    elif R.order == T.order and not (R.is_regular() and T.is_regular()):
        # a "none" from the class walk tried every member of R's class,
        # one per right coset of the normalizer; regular pairs, which
        # count candidates, are checked by
        # test_regular_route_matches_the_class_walk
        tried = sum(e.get("dropped", 1) for e in transcript)
        normalizer = sum(maps_into(c, Rkeys) for c in elems)
        assert tried == A.order // normalizer


@st.composite
def cycle_types(draw):
    """A permutation of degree 1 to 12, half the time with every cycle of
    one drawn length."""
    n = draw(st.integers(1, 12))
    points = draw(st.permutations(range(n)))
    if not draw(st.booleans()):
        return Permutation(points)
    k = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    images = list(range(n))
    for i in range(0, n, k):
        cyc = points[i:i + k]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return Permutation(images)


@settings(max_examples=200, deadline=None)
@given(cycle_types())
def test_semiregular_order_matches_cycle_lengths(g):
    n = g.degree
    fixed = [(x,) for x in range(n) if g(x) == x]
    lengths = {len(c) for c in g.cycles() + fixed}
    want = g.order() if len(lengths) == 1 else 0
    assert _semiregular_order(g.images) == want


def unlisted(monkeypatch, A):
    """A, with its elements() made to fail."""
    def no_listing(*args, **kwargs):
        raise AssertionError("the ambient group was listed")

    monkeypatch.setattr(A, "elements", no_listing)
    return A


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

    def test_search_above_degree_256_keeps_tuples(self):
        # rows of degree 258 do not fit bytes, so the decided classes hold
        # image tuples; a conjugate key that missed its class would show
        # up as a third class
        spec = GroupSpec.dihedral(129)
        A = inner_holomorph(spec)
        assert ci._pack(A.degree) is tuple
        reps = regular_subgroups(A, spec)
        assert len(reps) == 2
        assert are_conjugate_subgroups(A, *reps) is None

    def test_c2_x_d4_row_is_pinned(self):
        # the representatives, the least-key member of each class, must
        # not change
        A, spec = c2_x_d4_row()
        reps = regular_subgroups(A, spec)
        assert A.order == 128 and len(reps) == 15
        gens = [[g.to_json() for g in H.generators] for H in reps]
        digest = hashlib.sha256(json.dumps(gens).encode()).hexdigest()
        assert digest == ("10b8eb811f42acf321c60ec37314aa63"
                          "f016143b1c11f5f1fca1a59a09d8d4ca")

    def test_babai_representatives_are_pinned(self):
        # the Frobenius inner holomorphs of the conjugacy benchmark: the
        # representatives, and so the search order, must not change
        gens = []
        for p, n in ((13, 4), (7, 3), (5, 4)):
            spec = GroupSpec.frobenius(p, n)
            reps = regular_subgroups(inner_holomorph(spec), spec)
            assert len(reps) == 4
            gens.append([[g.to_json() for g in H.generators] for H in reps])
        digest = hashlib.sha256(json.dumps(gens).encode()).hexdigest()
        assert digest == ("c538ae2beff100e26858b8312c6965e7"
                          "f04d2e9150c0052365743babf88bab00")

    def test_c2_x_d4_row_builds_one_chain(self, monkeypatch):
        # the representatives take their chains from the known base [0],
        # and the regular copy of the spec gets its chain from is_regular:
        # no Schreier-Sims build at all
        A, spec = c2_x_d4_row()
        builds = []
        build = perm._Chain.schreier_sims

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(perm._Chain, "schreier_sims", counted)
        assert len(regular_subgroups(A, spec)) == 15
        assert len(builds) == 0

    def test_pinned_rows_do_not_list_the_ambient(self, monkeypatch):
        # candidates come from the cosets of A_0 the search visits; the
        # digests are those of the two pins above
        def gens(A, spec):
            return [[g.to_json() for g in H.generators]
                    for H in regular_subgroups(unlisted(monkeypatch, A), spec)]

        def digest(value):
            return hashlib.sha256(json.dumps(value).encode()).hexdigest()

        assert digest(gens(*c2_x_d4_row())) == (
            "10b8eb811f42acf321c60ec37314aa63"
            "f016143b1c11f5f1fca1a59a09d8d4ca")
        assert digest([gens(*frobenius_row(p, n))
                       for p, n in ((13, 4), (7, 3), (5, 4))]) == (
            "c538ae2beff100e26858b8312c6965e7"
            "f04d2e9150c0052365743babf88bab00")

    @pytest.mark.parametrize("A", [
        PermGroup(4, [Permutation([1, 0, 3, 2])]),
        PermGroup(4, [Permutation([1, 0, 2, 3]), Permutation([0, 1, 3, 2])]),
        PermGroup.trivial(4)], ids=["semiregular", "two-orbits", "trivial"])
    def test_intransitive_ambient_has_no_regular_subgroup(self, monkeypatch,
                                                          A):
        # a point outside the orbit of 0 has no candidates
        unlisted(monkeypatch, A)
        assert regular_subgroups(A, GroupSpec.elementary_abelian_2(2)) == []
        assert regular_subgroups(A, GroupSpec.cyclic(4)) == []

    def test_ambient_over_the_cap_is_refused(self, monkeypatch):
        A = unlisted(monkeypatch, PermGroup.symmetric(10))
        assert A.order > BRUTE_FORCE_CAP
        with pytest.raises(CapExceededError):
            regular_subgroups(A, GroupSpec.cyclic(10))

    def test_base_not_starting_at_zero(self, monkeypatch):
        # the first generator fixes 0, so A's own chain starts elsewhere
        # and the search builds one with 0 first
        A = unlisted(monkeypatch, PermGroup(4, [Permutation([0, 1, 3, 2]),
                                                Permutation([1, 2, 3, 0])]))
        assert A._chain.base[0] != 0
        for spec in (GroupSpec.cyclic(4), GroupSpec.elementary_abelian_2(2)):
            assert [H.generators for H in regular_subgroups(A, spec)] \
                == [H.generators for H in regular_subgroups(
                    PermGroup.symmetric(4), spec)]

    @pytest.mark.parametrize("name", ["s4", "a4", "example-degree-20"])
    def test_representative_chains_match_schreier_sims(self, name):
        ambients = {name: (A, specs)
                    for name, A, specs in _regular_oracle_corpus()}
        ambients["example-degree-20"] = (
            inner_holomorph(GroupSpec.frobenius(5, 4)),
            [GroupSpec.dicyclic(5)])
        A, specs = ambients[name]
        for spec in specs:
            for H in regular_subgroups(A, spec):
                elements = H.elements()
                built = PermGroup(A.degree, elements)
                assert H.order == built.order == A.degree
                assert H.generators == built.generators
                assert all(H.contains(g) for g in built.elements())
                outside = next(g for g in A.elements()
                               if not built.contains(g))
                assert not H.contains(outside)


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


@st.composite
def regular_pairs(draw):
    """A small ambient (see small_ambients) and two regular subgroups of
    it: class representatives of its regular subgroups isomorphic to any
    spec of its degree, or one and its conjugate by a random element."""
    A, _ = draw(small_ambients())
    assume(A.order <= 1152)
    reps = [H for spec in SMALL_SPECS if spec.size == A.degree
            for H in regular_subgroups(A, spec)]
    R = draw(st.sampled_from(reps))
    if draw(st.booleans()):
        return A, R, R.conjugate(A.element_at(draw(st.integers(
            0, A.order - 1))))
    return A, R, draw(st.sampled_from([H for H in reps if H is not R]
                                      or reps))


@settings(max_examples=30, deadline=None)
@given(regular_pairs())
def test_regular_route_matches_the_class_walk(case):
    A, R, T = case
    Tkeys = {g.images for g in T.elements()}
    count, attempts = ci._base_image_search(A, R, T)
    found = [c for _, c in attempts]
    assert len(found) == count
    by_walk = next((c for _, c in ci._class_walk(A, R, T) if c is not None),
                   None)
    assert any(found) == (by_walk is not None)
    for c in filter(None, found):
        assert A.contains(c)
        assert {g.images for g in R.conjugate(c).elements()} == Tkeys
    transcript = []
    got = are_conjugate_subgroups(A, R, T, transcript=transcript)
    assert (got is not None) == (by_walk is not None)
    if got is None and count <= A.order:
        # a "none" from the regular route tried every candidate
        assert sum(e.get("dropped", 1) for e in transcript) == count


def subgroup_key(images):
    """The key of a regular subgroup, given by its element image tuples:
    the tuples listed by image of 0, the identity left out."""
    return tuple(sorted(images, key=lambda im: im[0]))[1:]


def conjugacy_class(A, images):
    """The element-image sets of c^-1 H c for every c in A."""
    members = [Permutation(im) for im in images]
    return {frozenset((c.inverse() * h * c).images for h in members)
            for c in A.elements()}


def assert_least_key_representatives(A, reps, classes):
    """reps come in increasing key order, one for each class, and each is
    the least-key member of its class; classes holds one element-image set
    of each class."""
    keys = [subgroup_key(g.images for g in H.elements()) for H in reps]
    assert keys == sorted(set(keys))
    least = sorted(min(map(subgroup_key, conjugacy_class(A, c)))
                   for c in classes)
    assert keys == least


@pytest.mark.parametrize("row", [c2_x_d4_row, lambda: frobenius_row(5, 4),
                                 lambda: frobenius_row(7, 3)],
                         ids=["c2_x_d4", "frobenius(5,4)", "frobenius(7,3)"])
def test_representatives_have_least_keys(row):
    # each representative's class, by conjugation with every element of A
    A, spec = row()
    reps = regular_subgroups(A, spec)
    assert_least_key_representatives(
        A, reps, [[g.images for g in H.elements()] for H in reps])


@settings(max_examples=20, deadline=None)
@given(small_ambients())
def test_representatives_have_least_keys_on_small_ambients(case):
    A, spec = case
    assume(A.order <= ORACLE_AMBIENT_ORDER)
    reps = regular_subgroups(A, spec)
    assert_least_key_representatives(A, reps,
                                     regular_class_scan(A, [spec])[0])


def rechained(A, seed):
    """A with another chain: its generators plus a few seeded elements."""
    rng = random.Random(seed)
    extra = [A.element_at(rng.randrange(A.order)) for _ in range(3)]
    return PermGroup(A.degree, list(A.generators) + extra)


def test_representatives_do_not_depend_on_the_chain():
    A, spec = c2_x_d4_row()
    want = [H.generators for H in regular_subgroups(A, spec)]
    for seed in range(5):
        B = rechained(A, seed)
        assert B == A and B.elements() != A.elements()
        assert [H.generators for H in regular_subgroups(B, spec)] == want


@settings(max_examples=20, deadline=None)
@given(small_ambients(), st.integers(0, 2**32))
def test_representatives_do_not_depend_on_the_chain_of_small_ambients(
        case, seed):
    A, spec = case
    assume(A.order <= 1152)  # S_8 would take seconds an example
    B = rechained(A, seed)
    assert [H.generators for H in regular_subgroups(B, spec)] \
        == [H.generators for H in regular_subgroups(A, spec)]


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
        with pytest.raises(BudgetExceededError):
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

    @pytest.mark.parametrize("search", [
        lambda R, T: align_sylow_orbits(R, T, 3), block_tower_search],
        ids=["align", "tower"])
    def test_joint_refusals(self, search):
        # both entry points share one check of <R, T>: non-isomorphic
        # groups first, then <R, T> = S12 over the element cap
        with pytest.raises(ValueError, match="^R and T must be isomorphic$"):
            search(regular(GroupSpec.dicyclic(3)),
                   regular(GroupSpec.cyclic(12)))
        C = regular(GroupSpec.cyclic(12))
        T = C.conjugate(Permutation([1, 0] + list(range(2, 12))))
        assert PermGroup(12, list(C.generators) + list(T.generators)).order \
            == 479001600
        with pytest.raises(CapExceededError):
            search(C, T)

    def test_transporter_none_certified(self):
        G = PermGroup(4, [Permutation([1, 0, 2, 3])])
        src = BlockSystem(4, [[0, 1], [2, 3]])
        tgt = BlockSystem(4, [[0, 2], [1, 3]])
        assert partition_transporter(G, src, tgt) is None

    def test_transporter_of_degree_1(self):
        part = BlockSystem.singletons(1)
        assert partition_transporter(PermGroup.trivial(1), part, part) \
            == Permutation.identity(1)


def block_system_transporter(ambient, source, target):
    """The breadth-first search over BlockSystem states that
    partition_transporter makes on block labels, state for state."""
    queue = [(source, Permutation.identity(ambient.degree))]
    seen = {source}
    for part, w in queue:
        if part == target:
            return w
        for g in ambient.generators:
            image = part.apply(g.inverse())
            if image not in seen:
                seen.add(image)
                queue.append((image, w * g))
    return None


@st.composite
def transporter_cases(draw):
    """A random group of degree 2 to 8 and two partitions into equal
    cells; half the time the target is the source moved by an element of
    the group."""
    n = draw(st.integers(2, 8))
    perms = st.permutations(range(n)).map(Permutation)
    G = PermGroup(n, draw(st.lists(perms, min_size=1, max_size=3)))
    size = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))

    def partition():
        points = draw(st.permutations(range(n)))
        return BlockSystem(n, [points[i:i + size] for i in range(0, n, size)])

    source = partition()
    if draw(st.booleans()):
        return G, source, source.apply(G.element_at(draw(st.integers(
            0, G.order - 1))))
    return G, source, partition()


@settings(max_examples=100, deadline=None)
@given(transporter_cases())
def test_transporter_returns_the_block_system_word(case):
    G, source, target = case
    assert partition_transporter(G, source, target) \
        == block_system_transporter(G, source, target)


# order-12 pairs (R, R^c) with no conjugate aligning the Sylow 3-orbits
FALLBACK_CASES = [
    (GroupSpec.dicyclic(3), [3, 2, 1, 0, 8, 11, 9, 10, 5, 7, 6, 4]),
    (GroupSpec.direct_product([GroupSpec.cyclic(3),
                               GroupSpec.elementary_abelian_2(2)]),
     [7, 6, 4, 5, 0, 3, 2, 1, 10, 9, 8, 11]),
    (GroupSpec.zn_semidirect_y(3, 4, 2),
     [8, 11, 9, 10, 2, 0, 1, 3, 4, 5, 6, 7]),
]


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
        R, T = q8_pair()
        res = block_tower_search(R, T)
        assert isinstance(res, TowerResult) and res.ratios == [2, 2, 2]
        assert res.transcript[0]["event"] == "two_group_conjugated"
        joint = PermGroup(8, list(R.generators)
                          + list(T.conjugate(res.conjugator).generators))
        for bs in res.tower[1:-1]:
            v = classify_block_system(joint, bs)
            assert v["is_block_system"] and v["is_normal"]

    def test_joint_group_is_built_once(self, monkeypatch):
        # <R, T> is built for the cap check and reused by the descent while
        # a level conjugates by the identity; the final check on <R, T^c>
        # reads only generators and orbits.  So neither <R, T> nor any
        # <R, T^d> runs Schreier-Sims twice: no run at degree n repeats on
        # a generating set that holds R's.  In the last pair <R, T> is a
        # 2-group of order 32, whose chain the descent reads again to find
        # a central involution
        R, W = dic3_partition_stabilizer()
        dic3 = (R, R.conjugate(W.generators[-1] * W.generators[0]))
        Q = regular(GroupSpec.q8())
        two_group = (Q, Q.conjugate(Permutation.from_cycles(8, [(0, 4)])))
        builds = []
        schreier_sims = perm._Chain.schreier_sims

        def counted(cls, degree, gens, base_hint=()):
            builds.append((degree, frozenset(g.images for g in gens)))
            return schreier_sims(degree, gens, base_hint)

        monkeypatch.setattr(perm._Chain, "schreier_sims",
                            classmethod(counted))
        for R, T in (dic3, q8_pair(), two_group):
            builds.clear()
            assert isinstance(block_tower_search(R, T), TowerResult)
            keys = {g.images for g in R.generators}
            joints = [gens for n, gens in builds
                      if n == R.degree and keys <= gens]
            assert len(joints) == len(set(joints))
            assert keys | {g.images for g in T.generators} in joints

    def test_sylow_growth_builds_no_normalizer(self, monkeypatch):
        def refused(G, H):
            raise AssertionError("a normalizer group was built")

        monkeypatch.setattr(perm, "normalizer", refused)
        assert sylow_subgroup(PermGroup.symmetric(4), 2).order == 8
        res = block_tower_search(*q8_pair())
        assert isinstance(res, TowerResult) and res.ratios == [2, 2, 2]

    def test_failure_when_the_descent_finds_no_conjugator(self, monkeypatch):
        def stuck(R, T, ambient, transcript):
            transcript.append({"event": "alignment_failed", "prime": 3})
            return None, None, None

        monkeypatch.setattr(ci, "_descend", stuck)
        R = regular(GroupSpec.cyclic(12))
        assert block_tower_search(R, R) == {
            "status": "failure",
            "transcript": [{"event": "alignment_failed", "prime": 3}]}

    def test_failure_when_the_tower_does_not_verify(self, monkeypatch):
        # the tower checked top down: the one block does not refine the
        # next system, so the check breaks at index 1
        verify, checked = ci.verify_tower, []

        def upside_down(G, towers):
            checked.append(verify(G, towers[::-1]))
            return checked[-1]

        monkeypatch.setattr(ci, "verify_tower", upside_down)
        R = regular(GroupSpec.cyclic(12))
        res = block_tower_search(R, R)
        assert res == {"status": "failure",
                       "transcript": [{"event": "aligned", "prime": 3,
                                       "block_size": 3}],
                       "verify": checked[0]}
        assert checked[0]["m_step"] is False
        assert checked[0]["broken_at"] == 1

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

    @pytest.mark.parametrize("spec, c", FALLBACK_CASES)
    def test_fallback_uses_normal_system_of_joint_group(self, spec, c):
        # no conjugate aligns the Sylow 3-orbits, but <R, T> has a normal
        # system with blocks of size 4 over three blocks
        R = regular(spec)
        res = block_tower_search(R, R.conjugate(Permutation(c)))
        assert isinstance(res, TowerResult)
        assert res.ratios == [4, 3]
        assert res.exceptional_case == "dicyclic_quotient"
        assert res.transcript == [
            {"event": "alignment_failed", "prime": 3},
            {"event": "exceptional_aligned", "block_size": 4}]

    @pytest.mark.parametrize("n, ratios", [(3, [3]), (15, [5, 3]),
                                           (21, [7, 3])])
    def test_odd_order_self(self, n, ratios):
        # a level of prime degree ends the descent
        R = regular(GroupSpec.cyclic(n))
        res = block_tower_search(R, R)
        assert isinstance(res, TowerResult) and res.ratios == ratios


def tower_certificate_inputs():
    """Pairs (R, T) whose tower results pin the tower search: relabeled
    regular Dic3 and a conjugate of it by a random word of 40 generators
    of its partition stabilizer, drawn as the conjugacy benchmark draws
    them, for 3 seeds x 10; the fallback cases; the Z15 and Z21
    self-pairs; and, for three groups of order 12, R and a seeded
    conjugate from the stabilizer of each of its block systems, whose
    quotient conjugators lift through nontrivial preimages."""
    R, W = dic3_partition_stabilizer()
    pairs = []
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for _ in range(10):
            w = Permutation.identity(12)
            for _ in range(40):
                w = w * rng.choice(W.generators)
            points = list(range(12))
            rng.shuffle(points)
            c = Permutation(points)
            pairs.append((R.conjugate(c), R.conjugate(w).conjugate(c)))
    for spec, c in FALLBACK_CASES:
        R = regular(spec)
        pairs.append((R, R.conjugate(Permutation(c))))
    for n in (15, 21):
        R = regular(GroupSpec.cyclic(n))
        pairs.append((R, R))
    for spec, _ in FALLBACK_CASES:
        R = regular(spec)
        rng = random.Random(12)
        for bs in all_block_systems(R):
            W = partition_stabilizer(bs)
            T = R.conjugate(W.element_at(rng.randrange(W.order)))
            joint = PermGroup(12, list(R.generators) + list(T.generators))
            if joint.order <= BRUTE_FORCE_CAP:
                pairs.append((R, T))
    return pairs


def test_tower_certificates_are_pinned():
    # conjugators, towers, ratios, tags and transcripts must not change
    # under refactoring of the block machinery they are certified with
    results = [block_tower_search(R, T) for R, T in tower_certificate_inputs()]
    assert all(isinstance(res, TowerResult) for res in results)
    cert = json.dumps([res.to_json() for res in results], sort_keys=True)
    assert hashlib.sha256(cert.encode()).hexdigest() == (
        "f34aaf924404533ead6cff1cb3f5c23c4e3b7dbc1ad61a786f5c8d742037bbb3")


def partition_stabilizer(bs):
    """The stabilizer of a block system: S_b on its first block, one swap
    and one cycle of its blocks."""
    n = bs.degree

    def perm(pairs):
        im = list(range(n))
        for x, y in pairs:
            im[x] = y
        return Permutation(im)

    first = bs.blocks[0]
    k = len(bs.blocks)
    return PermGroup(n, [
        perm(zip(first, first[1:] + first[:1])),
        perm(zip(first[:2], first[1::-1])),
        perm(zip(bs.blocks[0] + bs.blocks[1], bs.blocks[1] + bs.blocks[0])),
        perm((x, y) for i in range(k)
             for x, y in zip(bs.blocks[i], bs.blocks[(i + 1) % k])),
    ])


@pytest.mark.parametrize("spec", [
    GroupSpec.dicyclic(3), GroupSpec.cyclic(12),
    GroupSpec.direct_product([GroupSpec.cyclic(3),
                              GroupSpec.elementary_abelian_2(2)]),
    GroupSpec.zn_semidirect_y(3, 4, 2), GroupSpec.cyclic(15),
    GroupSpec.cyclic(21)],
    ids=["dic3", "z12", "z3xz2^2", "z3:z4", "z15", "z21"])
def test_tower_search_on_sampled_conjugates(spec):
    """One seeded conjugator from the inner holomorph and one from the
    stabilizer of each block system of R; a joint group over the cap is
    refused, every other pair gets a canonical tower."""
    R = regular(spec)
    rng = random.Random(12)
    pools = [inner_holomorph(spec)]
    pools += [partition_stabilizer(bs) for bs in all_block_systems(R)]
    patterns = canonical_ratio_patterns(R.order)
    for W in pools:
        T = R.conjugate(W.element_at(rng.randrange(W.order)))
        joint = PermGroup(R.degree, list(R.generators) + list(T.generators))
        if joint.order > BRUTE_FORCE_CAP:
            with pytest.raises(CapExceededError):
                block_tower_search(R, T)
            continue
        res = block_tower_search(R, T)
        assert isinstance(res, TowerResult)
        assert tuple(res.ratios) in patterns


def two_group_tower_inputs():
    """Pairs (R, T) whose towers reach 2-group levels above degree 4: for
    six groups with a Sylow 2-subgroup of order 8 or 16, R regular and one
    seeded conjugate from the inner holomorph and from the stabilizer of
    each block system of R, kept when |<R, T>| <= 3000."""
    specs = [GroupSpec.q8(), GroupSpec.cyclic(8),
             GroupSpec.elementary_abelian_2(3),
             GroupSpec.elementary_abelian_2(4),
             GroupSpec.direct_product([GroupSpec.cyclic(3), GroupSpec.q8()]),
             GroupSpec.zn_semidirect_y(3, 8, 2)]
    pairs = []
    for spec in specs:
        R = regular(spec)
        rng = random.Random(20)
        pools = [inner_holomorph(spec)]
        pools += [partition_stabilizer(bs) for bs in all_block_systems(R)]
        for W in pools:
            T = R.conjugate(W.element_at(rng.randrange(W.order)))
            joint = PermGroup(R.degree, list(R.generators) + list(T.generators))
            if joint.order <= 3000:
                pairs.append((R, T))
    return pairs


def test_two_group_tower_certificates_are_pinned():
    # 50 pairs, 16 of them conjugated into a common Sylow 2-subgroup
    pairs = two_group_tower_inputs()
    results = [block_tower_search(R, T) for R, T in pairs]
    assert len(results) == 50
    assert all(isinstance(res, TowerResult) for res in results)
    assert sum(any(e.get("event") == "two_group_conjugated"
                   for e in res.transcript) for res in results) == 16
    cert = json.dumps([res.to_json() for res in results], sort_keys=True)
    assert hashlib.sha256(cert.encode()).hexdigest() == (
        "fddc1e0778d7d9a62d89eafe28d865e60d90c988b4888d5ea7ce0e3e8c3fc317")
