import hashlib
import json
import math
import random
from collections import Counter

import pytest

from cayleykit.perm import PermGroup, Permutation, _Chain, _is_prime
from cayleykit.zoo import (GroupSpec, _table_profile, cayley_table,
                           cor2_groups, frobenius_natural_action,
                           group_in_family_R, inner_holomorph,
                           isomorphic_groups, isomorphic_to_spec,
                           regular_representation, zsigmondy_ppd)

CORPUS = [GroupSpec.cyclic(7), GroupSpec.cyclic(12),
          GroupSpec.elementary_abelian_2(3), GroupSpec.cyclic(4),
          GroupSpec.cyclic(8),
          GroupSpec.q8(), GroupSpec.dihedral(4), GroupSpec.dicyclic(3),
          GroupSpec.dicyclic(4), GroupSpec.direct_product([GroupSpec.cyclic(3), GroupSpec.q8()]),
          GroupSpec.zn_semidirect_y(15, 4, 4), GroupSpec.frobenius(5, 4)]


def spec_id(spec):
    """A test id: kind and order.  cyclic(4) and cyclic(8) take z44 and
    z88, the ids their tests had under the former z4 and z8 kinds."""
    if spec.kind == "cyclic" and spec.size in (4, 8):
        return f"z{spec.size}{spec.size}"
    return f"{spec.kind}{spec.size}"


class TestGroupSpecValidation:
    def test_dicyclic_below_two_rejected(self):
        for m in (0, 1):
            with pytest.raises(ValueError):
                GroupSpec.dicyclic(m)

    def test_semidirect_trivial_action_rejected(self):
        # a = 1 would put y in the center; must be built as a product instead
        with pytest.raises(ValueError):
            GroupSpec.zn_semidirect_y(15, 4, 1)

    def test_semidirect_needs_involutive_action(self):
        with pytest.raises(ValueError):
            GroupSpec.zn_semidirect_y(7, 4, 3)  # 3^2 = 2 != 1 mod 7

    def test_frobenius_needs_divisor(self):
        with pytest.raises(ValueError):
            GroupSpec.frobenius(7, 4)

    def test_order_over_limit_rejected(self):
        with pytest.raises(ValueError):
            GroupSpec.elementary_abelian_2(16)
        with pytest.raises(ValueError):
            GroupSpec.cyclic(2049)
        with pytest.raises(ValueError):
            GroupSpec.direct_product([GroupSpec.cyclic(64),
                                      GroupSpec.dihedral(17)])
        assert GroupSpec.cyclic(2048).size == 2048

    def test_json_roundtrip(self):
        for spec in CORPUS:
            clone = GroupSpec.from_json(spec.to_json())
            assert clone.size == spec.size and clone.kind == spec.kind


class TestGroupAxioms:
    @pytest.mark.parametrize("spec", CORPUS, ids=spec_id)
    def test_identity_and_inverses(self, spec):
        for a in range(spec.size):
            assert spec.mult(a, 0) == a == spec.mult(0, a)
            assert spec.mult(a, spec.inv(a)) == 0

    @pytest.mark.parametrize("spec", [GroupSpec.q8(), GroupSpec.dicyclic(5),
                                      GroupSpec.dicyclic(4),
                                      GroupSpec.frobenius(7, 3),
                                      GroupSpec.zn_semidirect_y(3, 8, 2)],
                             ids=spec_id)
    def test_associativity_exhaustive(self, spec):
        n = spec.size
        for a in range(n):
            for b in range(n):
                ab = spec.mult(a, b)
                for c in range(0, n, 3):
                    assert spec.mult(ab, c) == spec.mult(a, spec.mult(b, c))

    @pytest.mark.parametrize(
        "spec", CORPUS + [GroupSpec.dicyclic(5), GroupSpec.dicyclic(8)],
        ids=spec_id)
    def test_table_orders_match_power_loop(self, spec):
        # the orders read off the product table of the regular
        # representation, against powers of each label under spec.mult
        orders = _table_profile(cayley_table(
            regular_representation(spec).group))[0]
        naive = []
        for a in range(spec.size):
            k, acc = 1, a
            while acc != 0:
                k, acc = k + 1, spec.mult(acc, a)
            naive.append(k)
        assert sorted(orders) == sorted(naive)
        if spec.kind == "dicyclic":
            m = spec.params["m"]
            assert len(orders) == 4 * m
            assert orders.count(2) == 1  # unique involution
            if m % 2 == 0:  # generalized quaternion
                assert max(orders) == 2 * m

    def test_dicyclic_2_is_q8(self):
        d, q = GroupSpec.dicyclic(2), GroupSpec.q8()
        assert d.generator_labels() == q.generator_labels()
        assert all(d.mult(a, b) == q.mult(a, b)
                   for a in range(8) for b in range(8))


def product_reference(factors):
    """Order, product and generator labels of the direct product of
    factors, labeled mixed radix with the first factor most significant,
    taken factor by factor through each factor's own mult."""
    sizes = [f.size for f in factors]

    def digits(g):
        out = []
        for s in reversed(sizes):
            g, d = divmod(g, s)
            out.append(d)
        return out[::-1]

    def label(ds):
        out = 0
        for s, d in zip(sizes, ds):
            out = out * s + d
        return out

    def mult(g, h):
        return label([f.mult(x, y)
                      for f, x, y in zip(factors, digits(g), digits(h))])

    gens = {label([g if j == i else 0 for j in range(len(factors))])
            for i, f in enumerate(factors) for g in f.generator_labels()}
    return math.prod(sizes), mult, gens


PRODUCT_FACTORS = [
    [GroupSpec.frobenius(7, 3), GroupSpec.cyclic(2)],
    [GroupSpec.cyclic(2), GroupSpec.frobenius(5, 4)],
    [GroupSpec.zn_semidirect_y(3, 4, 2), GroupSpec.elementary_abelian_2(2)],
    [GroupSpec.elementary_abelian_2(0), GroupSpec.q8()],
    [GroupSpec.q8(), GroupSpec.elementary_abelian_2(0)],
    [GroupSpec.dicyclic(3), GroupSpec.cyclic(3)],
    [GroupSpec.cyclic(3), GroupSpec.dicyclic(4)],
    [GroupSpec.direct_product([GroupSpec.cyclic(2), GroupSpec.dihedral(3)]),
     GroupSpec.direct_product([GroupSpec.cyclic(2),
                               GroupSpec.frobenius(5, 2)])],
    [GroupSpec.cyclic(3), GroupSpec.direct_product(
        [GroupSpec.elementary_abelian_2(2), GroupSpec.dicyclic(2)])],
]


@pytest.mark.parametrize("factors", PRODUCT_FACTORS,
                         ids=lambda fs: "x".join(f"{f.kind}{f.size}"
                                                 for f in fs))
def test_direct_product_matches_the_factorwise_reference(factors):
    spec = GroupSpec.direct_product(factors)
    size, mult, gens = product_reference(factors)
    assert spec.size == size
    assert all(spec.mult(g, h) == mult(g, h)
               for g in range(size) for h in range(size))
    assert set(spec.generator_labels()) == gens


@pytest.mark.parametrize("e", range(5))
def test_elementary_abelian_2_multiplies_by_xor(e):
    spec = GroupSpec.elementary_abelian_2(e)
    assert spec.size == 2 ** e
    assert all(spec.mult(g, h) == g ^ h
               for g in range(2 ** e) for h in range(2 ** e))
    assert spec.generator_labels() == [1 << i for i in range(e)]


def spec_grid(max_order=64):
    """Every kind up to max_order (odd-m dicyclic only), plus C4 x D16."""
    G = GroupSpec
    specs = [G.cyclic(n) for n in range(1, max_order + 1)]
    specs += [G.elementary_abelian_2(e) for e in range(7)]
    specs += [G.cyclic(4), G.cyclic(8), G.q8()]
    specs += [G.dihedral(m) for m in range(1, max_order // 2 + 1)]
    specs += [G.dicyclic(m) for m in range(3, max_order // 4 + 1, 2)]
    specs += [G.zn_semidirect_y(n, oy, act)
              for oy in (2, 4, 8) for n in range(3, max_order // oy + 1, 2)
              for act in range(2, n) if act * act % n == 1]
    specs += [G.frobenius(p, n)
              for p in range(2, max_order + 1) if _is_prime(p)
              for n in range(2, p) if (p - 1) % n == 0 and p * n <= max_order]
    specs.append(G.direct_product([G.cyclic(4), G.dihedral(8)]))
    return specs


class TestLabelGrid:
    def test_tables_and_regular_generators_pinned(self):
        # One digest over each spec's full product table and the
        # generators of both regular representations.
        h = hashlib.sha256()
        for spec in spec_grid():
            n = spec.size
            gens = [[list(g.images)
                     for g in regular_representation(spec, side).group
                     .generators]
                    for side in ("left", "right")]
            table = [[spec.mult(a, b) for b in range(n)] for a in range(n)]
            h.update(json.dumps([spec.to_json(), table, gens]).encode())
        assert h.hexdigest() == ("14ea0dca950c27387d472f4d673f4766"
                                 "82d3ed7dbb3011aa990c13f846370f9f")

    def test_generator_labels_in_range(self):
        extra = [GroupSpec.dicyclic(m) for m in range(2, 17, 2)]
        extra.append(GroupSpec.direct_product(
            [GroupSpec.dihedral(1), GroupSpec.cyclic(3)]))
        for spec in spec_grid() + extra:
            assert all(0 <= g < spec.size for g in spec.generator_labels()), \
                spec


class TestRegularRepresentations:
    @pytest.mark.parametrize("spec", CORPUS, ids=spec_id)
    def test_regular_and_commuting(self, spec):
        L = regular_representation(spec, "left").group
        R = regular_representation(spec, "right").group
        assert L.order == R.order == spec.size
        assert L.is_regular() and R.is_regular()
        assert all(a * b == b * a
                   for a in L.generators for b in R.generators)

    def test_sides_coincide_iff_abelian(self):
        for spec in CORPUS:
            L = regular_representation(spec, "left").group
            R = regular_representation(spec, "right").group
            same = sorted(p.images for p in L.elements()) \
                == sorted(p.images for p in R.elements())
            abelian = all(a * b == b * a
                          for a in L.generators for b in L.generators)
            assert same == abelian


class TestInnerHolomorph:
    def test_order_formula(self):
        # |<G_L, G_R>| = |G|^2 / |Z(G)|
        cases = [(GroupSpec.frobenius(5, 4), 400),
                 (GroupSpec.q8(), 32),
                 (GroupSpec.cyclic(4), 4),
                 (GroupSpec.dicyclic(3), 72)]
        for spec, expected in cases:
            assert inner_holomorph(spec).order == expected


class TestNumberTheory:
    def test_zsigmondy_exceptions(self):
        assert zsigmondy_ppd(2, 6) is None
        assert zsigmondy_ppd(3, 2) is None
        assert zsigmondy_ppd(7, 2) is None

    def test_zsigmondy_values(self):
        assert zsigmondy_ppd(2, 4) == 5
        assert zsigmondy_ppd(2, 11) == 23
        # returned prime is 1 mod k
        for a, k in [(2, 5), (3, 4), (5, 3), (10, 6)]:
            p = zsigmondy_ppd(a, k)
            assert p is not None and p % k == 1


class TestFamilyMembership:
    def test_case_a(self):
        spec = GroupSpec.direct_product(
            [GroupSpec.cyclic(15), GroupSpec.elementary_abelian_2(3)])
        res = group_in_family_R(regular_representation(spec).group)
        assert res["member"] and res["case"] == "a"

    def test_case_b(self):
        res = group_in_family_R(
            regular_representation(GroupSpec.dicyclic(5)).group)
        assert res["member"] and res["case"] == "b"
        assert res["witness"]["order_of_y"] == 4

    def test_not_squarefree(self):
        assert not group_in_family_R(
            regular_representation(GroupSpec.cyclic(9)).group)["member"]

    def test_noncyclic_odd_part(self):
        # Z3^2 odd noncyclic: out
        G = regular_representation(GroupSpec.direct_product(
            [GroupSpec.cyclic(3), GroupSpec.cyclic(3)]), "left").group
        assert not group_in_family_R(G)["member"]

    def test_z8_degenerate_member(self):
        # closure of the family under subgroups/quotients of the o(y)=8
        # members forces Zn x Z8 in
        res = group_in_family_R(regular_representation(GroupSpec.cyclic(8)).group)
        assert res["member"]
        assert res["witness"].get("degenerate")

    def test_elspas_turner_pair_on_z8(self):
        # Z8 is a degenerate member, yet not CI^(3): sigma is an
        # isomorphism Cay(Z8, S) -> Cay(Z8, T) of Cayley digraphs, and no
        # automorphism x -> u*x of Z8 maps S to T
        S, T = {1, 2, 5}, {1, 5, 6}
        sigma = (0, 1, 6, 7, 4, 5, 2, 3)
        assert ({(sigma[x], sigma[(x + s) % 8]) for x in range(8) for s in S}
                == {(y, (y + t) % 8) for y in range(8) for t in T})
        assert all({u * s % 8 for s in S} != T for u in (1, 3, 5, 7))
        res = group_in_family_R(
            regular_representation(GroupSpec.cyclic(8)).group)
        assert res["member"] and res["witness"].get("degenerate")

    def test_dihedral_case_b(self):
        res = group_in_family_R(
            regular_representation(GroupSpec.dihedral(5)).group)
        assert res["member"] and res["case"] == "b"
        assert res["witness"]["order_of_y"] == 2


def cd_rows():
    """Every cyclic(n) x dihedral(m) and every cyclic(n) x dicyclic(m) with
    3 not dividing m, of order at most 64: dihedral rows first, each kind
    by m, then n."""
    G = GroupSpec
    rows = [(G.cyclic(n), G.dihedral(m))
            for m in range(1, 33) for n in range(1, 32 // m + 1)]
    rows += [(G.cyclic(n), G.dicyclic(m))
             for m in range(2, 17) if m % 3 for n in range(1, 16 // m + 1)]
    return [G.direct_product(list(r)) for r in rows]


class TestFamilyPinned:
    """group_in_family_R verdicts recorded from the Sylow-subgroup
    implementation, which this one must reproduce verdict for verdict."""

    @pytest.mark.parametrize("corpus, size, members, digest", [
        (cd_rows, 143, 56, "c15b3cebccaee861185f45e55c0171e1"
                           "d526e3a49b9e7aa96280be4188034709"),
        # every kind, among them Frobenius groups whose y^2 is not central
        (spec_grid, 162, 115, "1be44fcdc61bf208c07b25798adb6e08"
                              "faaafd9635cedf44e3fdcb542f62411a"),
    ], ids=["cd-rows", "spec-grid"])
    def test_verdicts_pinned(self, corpus, size, members, digest):
        verdicts = [group_in_family_R(regular_representation(spec).group)
                    for spec in corpus()]
        assert len(verdicts) == size
        assert sum(v["member"] for v in verdicts) == members
        assert hashlib.sha256(json.dumps(
            verdicts, sort_keys=True).encode()).hexdigest() == digest

    def test_natural_actions(self):
        S3, S4 = PermGroup.symmetric(3), PermGroup.symmetric(4)
        A4 = PermGroup(4, [Permutation([1, 2, 0, 3]),
                           Permutation([1, 0, 3, 2])])
        assert group_in_family_R(S3) == {
            "member": True, "case": "b",
            "witness": {"n": 3, "order_of_y": 2}}
        for G in (S4, A4):
            # 9 elements of odd order, not a cyclic group of order 3
            assert group_in_family_R(G) == {
                "member": False, "case": None, "witness": None}


class TestIsomorphism:
    def test_positive(self):
        H = regular_representation(GroupSpec.dicyclic(5), "left").group
        assert isomorphic_to_spec(H, GroupSpec.dicyclic(5))

    def test_order_histograms_differ(self):
        H = regular_representation(GroupSpec.cyclic(20), "left").group
        assert not isomorphic_to_spec(H, GroupSpec.dicyclic(5))

    def test_q8_vs_elementary(self):
        H = regular_representation(GroupSpec.q8(), "left").group
        assert not isomorphic_to_spec(H, GroupSpec.elementary_abelian_2(3))

    def test_same_histogram_distinguished(self):
        # D8 x Z2 and the Pauli-type group share order statistics questions;
        # cheap case: Z4 x Z2 vs Z2^3 differ already, deeper case via groups
        a = regular_representation(GroupSpec.dihedral(4), "left").group
        b = regular_representation(GroupSpec.q8(), "left").group
        assert not isomorphic_groups(a, b)

    def test_non_regular_groups_rejected(self):
        # the test works on product tables, which only regular groups have
        S4 = PermGroup.symmetric(4)
        with pytest.raises(ValueError):
            isomorphic_groups(S4, S4)
        with pytest.raises(ValueError):
            isomorphic_to_spec(S4, GroupSpec.cyclic(4))
        with pytest.raises(ValueError):
            cayley_table(PermGroup(4, [Permutation([1, 0, 2, 3])]))

    @pytest.mark.parametrize("spec", CORPUS, ids=spec_id)
    def test_left_regular_table_is_the_spec_table(self, spec, monkeypatch):
        # the table is the listing is_regular reads: no chain is built
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain was built")

        monkeypatch.setattr(_Chain, "__init__", no_chain)
        monkeypatch.setattr(_Chain, "schreier_sims", no_chain)
        n = spec.size
        assert cayley_table(regular_representation(spec, "left").group) \
            == [tuple(spec.mult(a, b) for b in range(n)) for a in range(n)]


def iso_corpus():
    """Every spec kind of order at most 16 and some small direct products,
    each as its left regular group conjugated by a seeded relabeling."""
    G = GroupSpec
    specs = [G.cyclic(n) for n in range(1, 17)]
    specs += [G.elementary_abelian_2(e) for e in range(5)]
    specs += [G.cyclic(4), G.cyclic(8), G.q8()]
    specs += [G.dihedral(m) for m in range(1, 9)]
    specs += [G.dicyclic(m) for m in range(2, 5)]
    specs += [G.zn_semidirect_y(3, 2, 2), G.zn_semidirect_y(5, 2, 4),
              G.zn_semidirect_y(7, 2, 6), G.zn_semidirect_y(3, 4, 2)]
    specs += [G.frobenius(3, 2), G.frobenius(5, 2), G.frobenius(7, 2)]
    specs += [G.direct_product(f) for f in (
        [G.cyclic(2), G.cyclic(2)], [G.cyclic(2), G.cyclic(3)],
        [G.cyclic(2), G.cyclic(4)], [G.cyclic(2), G.cyclic(6)],
        [G.cyclic(3), G.cyclic(3)], [G.cyclic(4), G.cyclic(4)],
        [G.cyclic(2), G.cyclic(8)], [G.cyclic(2), G.dihedral(4)],
        [G.cyclic(2), G.q8()], [G.cyclic(2), G.dihedral(3)],
        [G.cyclic(2), G.cyclic(2), G.cyclic(4)], [G.cyclic(4), G.cyclic(4)],
        [G.dihedral(2), G.cyclic(4)])]
    rng = random.Random(20261018)
    groups = []
    for spec in specs:
        images = list(range(spec.size))
        rng.shuffle(images)
        L = regular_representation(spec, "left").group
        groups.append(L.conjugate(Permutation(images)))
    return groups


def c4_semidirect_c4():
    """C4 x| C4, the metacyclic row (4, 4, -1, 0), from its product table."""
    def mult(g, h):
        (x1, i1), (x2, i2) = divmod(g, 4), divmod(h, 4)
        return (x1 + (-1) ** i1 * x2) % 4 * 4 + (i1 + i2) % 4
    return PermGroup(16, [Permutation(mult(g, x) for x in range(16))
                          for g in (4, 1)])


class TestIsomorphismMatrix:
    def test_matrix_pinned(self):
        groups = iso_corpus()
        matrix = [[int(isomorphic_groups(a, b)) for b in groups]
                  for a in groups]
        assert all(matrix[i][i] for i in range(len(groups)))
        digest = hashlib.sha256(json.dumps(matrix).encode()).hexdigest()
        assert digest == ("754d591f7e9e0a3c7e2493d47d89387a"
                          "4bd701e5df10c9000b8a6f4d9250cdf9")

    def test_same_fingerprint_not_isomorphic(self):
        # Same order histogram, center of order 4 and derived subgroup of
        # order 2, so only the exhaustive generator search tells them apart.
        a = c4_semidirect_c4()
        b = regular_representation(GroupSpec.direct_product(
            [GroupSpec.cyclic(2), GroupSpec.q8()]), "left").group
        hist = [sorted(Counter(g.order() for g in G.elements()).items())
                for G in (a, b)]
        assert hist[0] == hist[1] == [(1, 1), (2, 3), (4, 12)]
        assert not isomorphic_groups(a, b)
        assert not isomorphic_groups(b, a)
        assert isomorphic_groups(a, a.conjugate(
            Permutation(random.Random(5).sample(range(16), 16))))


class TestCor2AndFrobenius:
    def test_cor2_regular_pair(self):
        G1, G2 = cor2_groups(13, 4, 2, 1)
        assert G1.order == G2.order == 52
        assert G1.is_regular() and G2.is_regular()

    def test_cor2_rejects_unit_a(self):
        with pytest.raises(ValueError):
            cor2_groups(13, 4, 3, 1)  # 3 is a unit mod 4

    def test_cor2_rejects_bad_difference(self):
        with pytest.raises(ValueError):
            cor2_groups(13, 4, 2, 2)

    def test_cor2_rejects_small_n(self):
        with pytest.raises(ValueError):
            cor2_groups(5, 2, 0, 1)

    @pytest.mark.parametrize("args, message", [
        ((12, 4, 2, 1), "p must be prime"),
        ((13, 5, 0, 1), "n must divide p-1"),
        ((13, 6, 3, 1), "a must be even"),
        ((13, 6, 2, 5), "a - b must be invertible"),
    ])
    def test_cor2_refusals(self, args, message):
        with pytest.raises(ValueError, match=message):
            cor2_groups(*args)

    def test_frobenius_property(self):
        # nonidentity elements fix at most one point
        G = frobenius_natural_action(7, 3)
        for g in G.elements():
            if not g.is_identity():
                assert sum(g(x) == x for x in range(G.degree)) <= 1

    def test_frobenius_transitive_order(self):
        G = frobenius_natural_action(7, 3)
        assert G.order == 21 and G.is_transitive()


def test_zsigmondy_against_factorization():
    # past the zsigmondy-table claim's 2..12 grid: every a <= 40 and
    # k <= 16 with a^k < 10^10
    from cayleykit.repro import smallest_primitive_prime_divisor
    grid = [(a, k) for a in range(2, 41) for k in range(2, 17)
            if a ** k < 10 ** 10]
    assert [smallest_primitive_prime_divisor(a, k) for a, k in grid] \
        == [zsigmondy_ppd(a, k) for a, k in grid]
