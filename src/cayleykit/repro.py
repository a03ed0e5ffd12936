"""Named reproduction pipelines and the independent oracles they check
against.

Each claim function returns a report body {claim, inputs, outputs, pass};
the bodies are deterministic, so equal inputs give byte-identical bodies.
The oracles here deliberately avoid the library code paths under test:
automorphisms by a walk that takes images from diagonal color classes and
checks each level in one gather (closures.brute_force_automorphisms),
block systems by testing every equal-cell partition on its own labels,
and subgroups by growing the full subgroup lattice.
"""

from __future__ import annotations

import itertools
import random

from .blocks import (BlockSystem, action_on_blocks, all_block_systems,
                     block_restriction)
from .ci import (TowerResult, are_conjugate_subgroups, block_tower_search,
                 canonical_ratio_patterns, holomorph_witness,
                 regular_subgroups)
from .closures import brute_force_automorphisms, k_closure, orbit_coloring
from .perm import PermGroup, Permutation, is_normal_in, sylow_subgroup
from .zoo import (GroupSpec, cor2_groups,
                  frobenius_natural_action, group_in_family_R,
                  inner_holomorph, isomorphism_test, regular_representation,
                  zsigmondy_ppd)


# ---------------------------------------------------------------- oracles

ORACLE_CAP = 10 ** 5


def invariant_partition_scan(G):
    """Every nontrivial equal-cell partition preserved by G, by brute force on
    the scan's own cell labels: every generator maps each cell into one."""
    n = G.degree
    gens = [g.images for g in G.generators]
    label = [0] * n
    found = []
    for size in range(2, n):
        if n % size != 0:
            continue
        for cells in _equal_partitions(list(range(n)), size):
            for i, cell in enumerate(cells):
                for x in cell:
                    label[x] = i
            if all(len({label[s[x]] for x in cell}) == 1
                   for s in gens for cell in cells):
                found.append(BlockSystem(n, cells))
    return sorted(found)


def _equal_partitions(points, size):
    if not points:
        yield []
        return
    head, rest = points[0], points[1:]
    for mates in itertools.combinations(rest, size - 1):
        cell = (head,) + mates
        left = [x for x in rest if x not in mates]
        for tail in _equal_partitions(left, size):
            yield [cell] + tail


def all_subgroups(A):
    """The full subgroup lattice of a small group, as element-key sets.

    A's elements are indexed once, and products are looked up in an integer
    table whose rows are filled on first use.  Starting from the trivial
    group, every subgroup H found so far is extended by one g from each
    right coset Hg other than H itself (<H, hg> = <H, g>); <H, g> is grown
    by breadth-first search from the identity, multiplying on the right by
    H's recorded generators and g.  Every subgroup is a chain of such
    one-generator extensions of the trivial group, so the lattice is
    complete.
    """
    elems = [g.images for g in A.elements(ORACLE_CAP)]
    index = {im: i for i, im in enumerate(elems)}
    rows = [None] * len(elems)

    def row(i):
        if rows[i] is None:
            a = elems[i]
            rows[i] = [index[tuple([a[x] for x in b])] for b in elems]
        return rows[i]

    ident = index[tuple(range(A.degree))]
    trivial = frozenset([ident])
    gens_of = {trivial: []}
    frontier = [trivial]
    while frontier:
        new = []
        for H in frontier:
            gens = gens_of[H]
            covered = set(H)
            for g in range(len(elems)):
                if g in covered:
                    continue
                covered.update(row(h)[g] for h in H)
                step = gens + [g]
                grown = [ident]
                seen = {ident}
                for x in grown:
                    r = row(x)
                    for s in step:
                        y = r[s]
                        if y not in seen:
                            seen.add(y)
                            grown.append(y)
                K = frozenset(grown)
                if K not in gens_of:
                    gens_of[K] = step
                    new.append(K)
        frontier = new
    return {frozenset(elems[i] for i in K) for K in gens_of}


def regular_class_scan(A, specs):
    """Conjugacy classes of regular copies of each spec via the full lattice.

    The lattice of A is grown once; the result holds one class list for each
    spec, in the order of specs.
    """
    n = A.degree
    elems = A.elements(ORACLE_CAP)
    # a subgroup of order n is regular iff it moves 0 to every point; its
    # product table lists its elements by their image of 0
    regular = [(key, sorted(key, key=lambda im: im[0]))
               for key in all_subgroups(A)
               if len(key) == n and len({im[0] for im in key}) == n]
    out = []
    for spec in specs:
        m = spec.size
        is_spec = isomorphism_test([tuple(spec.mult(a, b) for b in range(m))
                                    for a in range(m)])
        hits = [key for key, table in regular if is_spec(table)]
        classes = []
        placed = set()
        for key in sorted(hits, key=sorted):
            if key in placed:
                continue
            members = [Permutation(im) for im in key]
            orbit = set()
            for c in elems:
                cinv = c.inverse()
                orbit.add(frozenset((cinv * h * c).images for h in members))
            classes.append(key)
            placed |= orbit
        out.append(classes)
    return out


def smallest_primitive_prime_divisor(a, k):
    """Direct-factorization oracle for primitive prime divisors: the first
    primitive prime that trial division by 2 and odd d meets, in order."""
    v = a ** k - 1
    d = 2
    while d * d <= v:
        if v % d == 0:
            if all((a ** j - 1) % d != 0 for j in range(1, k)):
                return d
            while v % d == 0:
                v //= d
        d += 1 if d == 2 else 2
    if v > 1 and all((a ** j - 1) % v != 0 for j in range(1, k)):
        return v
    return None


# ----------------------------------------------------------- claim bodies

def claim_example_degree_20():
    spec = GroupSpec.frobenius(5, 4)
    A = inner_holomorph(spec)
    closed = k_closure(A, 3).order == A.order
    reps = regular_subgroups(A, GroupSpec.dicyclic(5))
    out = {"holomorph_order": A.order, "is_3_closed": closed,
           "regular_dicyclic_classes": len(reps)}
    ok = A.order == 400 and closed and len(reps) == 2
    return _report("example-degree-20", {"p": 5, "n": 4}, out, ok)


def claim_cor1_p7_n3():
    out = holomorph_witness(GroupSpec.frobenius(7, 3))
    ok = (out["holomorph_order"] == 441 and out["is_3_closed"]
          and not out["left_right_conjugate"])
    return _report("cor1-p7-n3", {"p": 7, "n": 3}, out, ok)


def claim_frobenius_2closed_p7_n3():
    G = frobenius_natural_action(7, 3)
    closure = k_closure(G, 2)
    oracle = brute_force_automorphisms(orbit_coloring(G, 2))
    out = {"group_order": G.order, "closure_order": closure.order,
           "oracle_order": oracle.order,
           "is_2_closed": closure.order == G.order}
    ok = (G.order == 21 and closure.order == 21 and oracle.order == 21)
    return _report("frobenius-2closed-p7-n3", {"p": 7, "n": 3}, out, ok)


def claim_cor2_p13_n4():
    G1, G2 = cor2_groups(13, 4, 2, 1)
    S1 = sylow_subgroup(G1, 13)
    S2 = sylow_subgroup(G2, 13)
    amb = PermGroup(52, list(G1.generators) + list(G2.generators))
    conj = are_conjugate_subgroups(amb, G1, G2)
    out = {"orders": [G1.order, G2.order],
           "profiles": [G1.transitivity_profile(), G2.transitivity_profile()],
           "sylow_p_normal": [is_normal_in(S1, G1), is_normal_in(S2, G2)],
           "sylow_p_distinct": set(g.images for g in S1.elements())
           != set(g.images for g in S2.elements()),
           "ambient_order": amb.order,
           "conjugate": conj is not None}
    ok = (out["orders"] == [52, 52]
          and all(pr["regular"] for pr in out["profiles"])
          and all(out["sylow_p_normal"]) and out["sylow_p_distinct"]
          and amb.order == 2704 and conj is None)
    return _report("cor2-p13-n4", {"p": 13, "n": 4, "a": 2, "b": 1}, out, ok)


def _closure_corpus():
    reg = [GroupSpec.cyclic(4), GroupSpec.cyclic(6), GroupSpec.cyclic(9),
           GroupSpec.cyclic(10), GroupSpec.dihedral(3), GroupSpec.dihedral(4),
           GroupSpec.dihedral(5), GroupSpec.q8(),
           GroupSpec.elementary_abelian_2(3)]
    groups = [(f"{s.kind}-{s.size}-regular",
               regular_representation(s, "left").group) for s in reg]
    groups.append(("frobenius-5-4-natural", frobenius_natural_action(5, 4)))
    groups.append(("frobenius-7-3-natural", frobenius_natural_action(7, 3)))
    groups.append(("cyclic-5-regular",
                   regular_representation(GroupSpec.cyclic(5), "left").group))
    return groups


def claim_closure_chain():
    rows = []
    ok = True
    for name, G in _closure_corpus():
        k3 = k_closure(G, 3)
        k2 = k_closure(G, 2)
        chain_ok = (all(k3.contains(g) for g in G.generators)
                    and all(k2.contains(g) for g in k3.generators))
        row = {"group": name, "degree": G.degree, "order": G.order,
               "k3_order": k3.order, "k2_order": k2.order,
               "chain": chain_ok}
        if G.degree <= 7:
            oracle = {k: brute_force_automorphisms(orbit_coloring(G, k)).order
                      for k in (1, 2, 3)}
            row["oracle_match"] = (
                oracle[2] == k2.order and oracle[3] == k3.order
                and oracle[1] == k_closure(G, 1).order)
            chain_ok = chain_ok and row["oracle_match"]
        rows.append(row)
        ok = ok and chain_ok
    return _report("closure-chain", {"corpus_size": len(rows)},
                   {"rows": rows}, ok and len(rows) >= 10)


def claim_zsigmondy_table():
    mismatches = []
    exceptions = []
    for a in range(2, 13):
        for k in range(2, 13):
            got = zsigmondy_ppd(a, k)
            want = smallest_primitive_prime_divisor(a, k)
            if got != want:
                mismatches.append({"a": a, "k": k, "got": got, "want": want})
            if got is None:
                exceptions.append([a, k])
    expected = [[a, 2] for a in range(2, 13)
                if (a + 1) & a == 0] + [[2, 6]]
    ok = not mismatches and sorted(exceptions) == sorted(expected)
    return _report("zsigmondy-table", {"range": [2, 12]},
                   {"mismatches": mismatches, "exceptions": sorted(exceptions)},
                   ok)


def _natural_d8_a4():
    """D8 and A4 in their natural actions on 4 points."""
    return (PermGroup(4, [Permutation([1, 2, 3, 0]),
                          Permutation([2, 1, 0, 3])]),
            PermGroup(4, [Permutation([1, 2, 0, 3]),
                          Permutation([1, 0, 3, 2])]))


def _blocks_corpus():
    reg = [GroupSpec.cyclic(n) for n in range(2, 9)]
    reg += [GroupSpec.elementary_abelian_2(2), GroupSpec.elementary_abelian_2(3),
            GroupSpec.dihedral(3), GroupSpec.dihedral(4), GroupSpec.q8(),
            GroupSpec.direct_product([GroupSpec.cyclic(4),
                                      GroupSpec.cyclic(2)])]
    groups = [(f"{s.kind}-{s.size}-regular",
               regular_representation(s, "left").group) for s in reg]
    d8, a4 = _natural_d8_a4()
    groups += [("s4-natural", PermGroup.symmetric(4)), ("d8-natural", d8),
               ("a4-natural", a4)]
    return groups


def claim_blocks_oracle():
    rows = []
    ok = True
    for name, G in _blocks_corpus():
        via_library = all_block_systems(G)
        via_scan = invariant_partition_scan(G)
        match = via_library == via_scan
        rows.append({"group": name, "count": len(via_scan), "match": match})
        ok = ok and match
    return _report("blocks-oracle", {"corpus_size": len(rows)},
                   {"rows": rows}, ok)


def dic3_partition_stabilizer():
    """Stabilizer in S12 of the central-involution blocks of regular Dic3.

    Conjugating the regular group by its elements keeps the joint group
    inside this stabilizer, hence under the brute-force cap.
    """
    R = regular_representation(GroupSpec.dicyclic(3), "left").group
    z = next(g for g in R.elements()
             if g.order() == 2 and all(g * h == h * g for h in R.generators))
    blocks = PermGroup(12, [z]).orbits()
    gens = []
    for a, b in blocks:
        im = list(range(12))
        im[a], im[b] = im[b], im[a]
        gens.append(Permutation(im))

    def blockperm(pb):
        im = list(range(12))
        for i, j in enumerate(pb):
            im[blocks[i][0]] = blocks[j][0]
            im[blocks[i][1]] = blocks[j][1]
        return Permutation(im)

    gens.append(blockperm([1, 0, 2, 3, 4, 5]))
    gens.append(blockperm([1, 2, 3, 4, 5, 0]))
    return R, PermGroup(12, gens)


def claim_tower_dic3(seed=20210921):
    samples = 20
    R, W = dic3_partition_stabilizer()
    rng = random.Random(seed)
    patterns = canonical_ratio_patterns(R.order)
    rows = []
    ok = True
    for _ in range(samples):
        c = W.element_at(rng.randrange(W.order))
        T = R.conjugate(c)
        res = block_tower_search(R, T)
        good = (isinstance(res, TowerResult)
                and tuple(res.ratios) in patterns)
        rows.append({"conjugator": list(c.images),
                     "ratios": getattr(res, "ratios", None),
                     "tag": getattr(res, "exceptional_case", None),
                     "ok": good})
        ok = ok and good
    return _report("tower-dic3", {"seed": seed, "samples": samples},
                   {"rows": rows}, ok)


def _regular_oracle_corpus():
    d8, a4 = _natural_d8_a4()
    hol_q8 = inner_holomorph(GroupSpec.q8())
    z4z2 = GroupSpec.direct_product([GroupSpec.cyclic(4), GroupSpec.cyclic(2)])
    return [
        ("s3", PermGroup.symmetric(3), [GroupSpec.cyclic(3)]),
        ("s4", PermGroup.symmetric(4),
         [GroupSpec.cyclic(4), GroupSpec.elementary_abelian_2(2)]),
        ("a4", a4, [GroupSpec.cyclic(4), GroupSpec.elementary_abelian_2(2)]),
        ("d8-natural", d8,
         [GroupSpec.cyclic(4), GroupSpec.elementary_abelian_2(2)]),
        ("inner-holomorph-q8", hol_q8,
         [GroupSpec.q8(), GroupSpec.cyclic(8), z4z2,
          GroupSpec.elementary_abelian_2(3)]),
    ]


def claim_regular_subgroups_oracle():
    corpus = _regular_oracle_corpus()
    rows = []
    ok = True
    for name, A, specs in corpus:
        for spec, want in zip(specs, regular_class_scan(A, specs)):
            got = regular_subgroups(A, spec)
            match = len(got) == len(want)
            rows.append({"ambient": name, "spec": spec.kind,
                         "spec_order": spec.size,
                         "library": len(got), "oracle": len(want),
                         "match": match})
            ok = ok and match
    return _report("regular-subgroups-oracle",
                   {"ambients": len(corpus)},
                   {"rows": rows}, ok)


def _family_corpus():
    return [GroupSpec.cyclic(15), GroupSpec.cyclic(30), GroupSpec.cyclic(12),
            GroupSpec.cyclic(4), GroupSpec.q8(),
            GroupSpec.elementary_abelian_2(3),
            GroupSpec.elementary_abelian_2(4),
            GroupSpec.dihedral(3), GroupSpec.dihedral(5),
            GroupSpec.dihedral(15),
            GroupSpec.dicyclic(3), GroupSpec.dicyclic(5),
            GroupSpec.direct_product([GroupSpec.cyclic(15),
                                      GroupSpec.elementary_abelian_2(2)]),
            GroupSpec.direct_product([GroupSpec.cyclic(3), GroupSpec.q8()]),
            GroupSpec.zn_semidirect_y(3, 8, 2),
            GroupSpec.zn_semidirect_y(15, 4, 4)]


def claim_family_closure():
    rows = []
    ok = True
    verdicts = {}  # (degree, generator images) -> family-R membership

    def member(G):
        key = (G.degree, tuple(g.images for g in G.generators))
        if key not in verdicts:
            verdicts[key] = group_in_family_R(G)["member"]
        return verdicts[key]

    for spec in _family_corpus():
        # the claim body names the row of cyclic(4) z4
        name = "z4" if spec == GroupSpec.cyclic(4) else spec.kind
        R = regular_representation(spec, "left").group
        if not member(R):
            rows.append({"group": name, "order": spec.size,
                         "member": False})
            ok = False
            continue
        bad = []
        for bs in all_block_systems(R):
            cell = next(c for c in bs.blocks if 0 in c)
            restr = block_restriction(R, cell)
            if not member(restr):
                bad.append({"probe": "restriction",
                            "block_size": bs.block_size})
            quot = action_on_blocks(R, bs).group
            if not member(quot):
                bad.append({"probe": "quotient", "blocks": len(bs.blocks)})
        rows.append({"group": name, "order": spec.size,
                     "member": True, "failures": bad})
        ok = ok and not bad
    note = ("degree-12/24 transitive-group census is external data and out "
            "of scope; this claim checks the family closure property instead")
    return _report("family-closure", {"corpus_size": len(rows), "note": note},
                   {"rows": rows}, ok)


def _report(claim, inputs, outputs, passed):
    return {"claim": claim, "inputs": inputs, "outputs": outputs,
            "pass": bool(passed)}


CLAIMS = {
    "example-degree-20": claim_example_degree_20,
    "cor1-p7-n3": claim_cor1_p7_n3,
    "frobenius-2closed-p7-n3": claim_frobenius_2closed_p7_n3,
    "cor2-p13-n4": claim_cor2_p13_n4,
    "closure-chain": claim_closure_chain,
    "zsigmondy-table": claim_zsigmondy_table,
    "blocks-oracle": claim_blocks_oracle,
    "tower-dic3": claim_tower_dic3,
    "regular-subgroups-oracle": claim_regular_subgroups_oracle,
    "family-closure": claim_family_closure,
}


def run_claim(claim_id, seed=None):
    if claim_id not in CLAIMS:
        raise KeyError(f"unknown claim id {claim_id!r}")
    fn = CLAIMS[claim_id]
    if claim_id == "tower-dic3" and seed is not None:
        return fn(seed=seed)
    return fn()
