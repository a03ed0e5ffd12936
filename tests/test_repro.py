from collections import Counter

import pytest

from cayleykit import repro
from cayleykit.perm import PermGroup, Permutation
from cayleykit.repro import _regular_oracle_corpus, all_subgroups
from cayleykit.zoo import GroupSpec, inner_holomorph, regular_representation


def pair_product_lattice(A):
    """The lattice grown as all_subgroups grew it before the product table:
    every subgroup extended by every element outside it, each extension
    closed by multiplying every pair until nothing new appears."""
    n = A.degree
    ident = Permutation.identity(n).images
    subgroups = {frozenset([ident])}
    frontier = list(subgroups)
    while frontier:
        new = []
        for key in frontier:
            for g in A.elements():
                if g.images in key:
                    continue
                elems = {Permutation(im) for im in key} | {g}
                grow = list(elems)
                while grow:
                    fresh = []
                    for a in grow:
                        for b in list(elems):
                            for c in (a * b, b * a):
                                if c not in elems:
                                    elems.add(c)
                                    fresh.append(c)
                    grow = fresh
                gkey = frozenset(p.images for p in elems)
                if gkey not in subgroups:
                    subgroups.add(gkey)
                    new.append(gkey)
        frontier = new
    return subgroups


@pytest.mark.parametrize("name", ["s3", "s4", "a4", "d8-natural"])
def test_all_subgroups_matches_pair_product_growth(name):
    A = next(A for n, A, _ in _regular_oracle_corpus() if n == name)
    assert all_subgroups(A) == pair_product_lattice(A)


def _d8():
    return PermGroup(4, [Permutation([1, 2, 3, 0]), Permutation([2, 1, 0, 3])])


def _a4():
    return PermGroup(4, [Permutation([1, 2, 0, 3]), Permutation([1, 0, 3, 2])])


@pytest.mark.parametrize("make,size", [
    (lambda: PermGroup.symmetric(4), 30),
    (_a4, 10),
    (_d8, 10),
    (lambda: regular_representation(GroupSpec.q8()).group, 6),
    (lambda: PermGroup.symmetric(5), 156),
    (lambda: inner_holomorph(GroupSpec.q8()), 110),
], ids=["s4", "a4", "d8", "q8-regular", "s5", "inner-holomorph-q8"])
def test_lattice_sizes(make, size):
    lattice = all_subgroups(make())
    assert len(lattice) == size
    # every key is a subgroup: closed under products
    for key in lattice:
        elems = [Permutation(im) for im in key]
        assert all((a * b).images in key for a in elems for b in elems)


def test_family_closure_asks_each_probe_once(monkeypatch):
    # restrictions and quotients of different systems are often the same
    # group on the same generators; each is decided once
    asked = Counter()
    verdict = repro.group_in_family_R

    def counted(G):
        asked[G.degree, tuple(g.images for g in G.generators)] += 1
        return verdict(G)

    monkeypatch.setattr(repro, "group_in_family_R", counted)
    assert repro.claim_family_closure()["pass"]
    assert len(asked) > 16 and max(asked.values()) == 1
