"""Refused input across the package: each row is a call, the exception it
raises and its message.  Branches that only fail when a
theorem does, such as a Sylow extension that finds nothing, are not
input errors and have no row."""

import operator

import pytest

from cayleykit import ci
from cayleykit.blocks import (BlockAction, BlockSystem, all_block_systems,
                              classify_block_system, minimal_block_containing,
                              refines)
from cayleykit.closures import (ColoredStructure, brute_force_automorphisms,
                                is_automorphism)
from cayleykit.perm import (CapExceededError, PermGroup, Permutation,
                            is_normal_in, sylow_subgroup)
from cayleykit.repro import run_claim
from cayleykit.zoo import GroupSpec, regular_representation, zsigmondy_ppd

Z4 = PermGroup(4, [Permutation([1, 2, 3, 0])])
S3 = PermGroup.symmetric(3)
HALVES = BlockSystem(4, [[0, 1], [2, 3]])


def breadth_first_past_the_cap():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ci, "BRUTE_FORCE_CAP", 3)
        list(ci._breadth_first(0, [(1, 1)], operator.add, 0))


REFUSED = [
    ("ci._breadth_first cap", breadth_first_past_the_cap,
     CapExceededError, "orbit exceeds the cap"),
    ("align_sylow_orbits p not dividing |R|",
     lambda: ci.align_sylow_orbits(Z4, Z4, 3), ValueError,
     "p must divide the group order"),
    ("align_sylow_orbits non-regular pair",
     lambda: ci.align_sylow_orbits(S3, S3, 3), ValueError,
     "R and T must be regular"),
    ("minimal_block_containing equal points",
     lambda: minimal_block_containing(Z4, 1, 1), ValueError,
     "points must be distinct"),
    ("refines wrong degree",
     lambda: refines(HALVES, BlockSystem.singletons(2)), ValueError,
     "degree mismatch"),
    ("all_block_systems intransitive",
     lambda: all_block_systems(PermGroup(4, [Permutation([1, 0, 2, 3])])),
     ValueError, "group must be transitive"),
    ("BlockAction non-invariant partition",
     lambda: BlockAction(Z4, HALVES), ValueError,
     "partition is not invariant under G"),
    ("classify_block_system malformed partition",
     lambda: classify_block_system(Z4, [[0, 1], [2]]), ValueError,
     "malformed partition: cells must partition the point set"),
    ("PermGroup generator of the wrong degree",
     lambda: PermGroup(4, [Permutation([1, 0])]), ValueError,
     "generator degree mismatch"),
    ("conjugate wrong degree",
     lambda: Z4.conjugate(Permutation([1, 0])), ValueError,
     "degree mismatch"),
    ("is_normal_in non-subgroup",
     lambda: is_normal_in(PermGroup(3, [Permutation([1, 2, 0])]),
                          PermGroup(3, [Permutation([1, 0, 2])])),
     ValueError, "N is not a subgroup of G"),
    ("sylow_subgroup p not prime",
     lambda: sylow_subgroup(S3, 6), ValueError, "6 is not prime"),
    ("sylow_subgroup p not dividing |G|",
     lambda: sylow_subgroup(S3, 5), ValueError,
     "5 does not divide the group order 6"),
    ("dihedral(0)", lambda: GroupSpec.dihedral(0), ValueError,
     "dihedral parameter must be positive"),
    ("omega non-Frobenius", lambda: GroupSpec.cyclic(5).omega(), ValueError,
     "omega is only defined for frobenius specs"),
    ("regular_representation bad side",
     lambda: regular_representation(GroupSpec.cyclic(3), "up"), ValueError,
     "side must be 'left' or 'right'"),
    ("zsigmondy_ppd a below 2", lambda: zsigmondy_ppd(1, 3), ValueError,
     "a and k must both be at least 2"),
    ("zsigmondy_ppd k below 2", lambda: zsigmondy_ppd(3, 1), ValueError,
     "a and k must both be at least 2"),
    ("is_automorphism wrong degree",
     lambda: is_automorphism(ColoredStructure(3, 1, [0, 0, 1]),
                             Permutation([1, 0])),
     ValueError, "degree mismatch"),
    ("brute_force_automorphisms above degree 8",
     lambda: brute_force_automorphisms(ColoredStructure(9, 1, [0] * 9)),
     ValueError, "brute force oracle limited to degree 8"),
    ("run_claim unknown id", lambda: run_claim("no-such-claim"), KeyError,
     "unknown claim id 'no-such-claim'"),
]


@pytest.mark.parametrize("call,exception,message",
                         [row[1:] for row in REFUSED],
                         ids=[row[0] for row in REFUSED])
def test_refused_input(call, exception, message):
    with pytest.raises(exception) as info:
        call()
    # str() of a KeyError quotes its message
    assert str(info.value).strip('"') == message
