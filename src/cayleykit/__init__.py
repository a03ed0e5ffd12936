"""Permutation-group toolkit for Cayley-isomorphism computations.

Modules: perm (permutations, stabilizer chains), blocks (block systems and
towers), zoo (concrete group constructors), closures (k-closures), ci
(regular-subgroup conjugacy and tower search), repro (claim pipelines),
cli (command-line surface).
"""

from .perm import (BRUTE_FORCE_CAP, CapExceededError, PermGroup, Permutation,
                   is_normal_in, normalizer, orbit, sylow_subgroup)
from .blocks import (BlockAction, BlockSystem, action_on_blocks,
                     all_block_systems, block_restriction,
                     classify_block_system, minimal_block_containing,
                     pullback_system, refines, verify_tower)
from .zoo import (GroupSpec, LabeledPermGroup, cor2_groups,
                  frobenius_natural_action, group_in_family_R,
                  inner_holomorph, isomorphic_groups, isomorphic_to_spec,
                  regular_representation, zsigmondy_ppd)
from .closures import (BudgetExceededError, ColoredStructure, automorphisms,
                       is_automorphism, k_closure, orbit_coloring)
from .ci import (CiVerdict, TowerResult, align_sylow_orbits,
                 are_conjugate_subgroups, babai_check, block_tower_search,
                 canonical_ratio_patterns, holomorph_witness,
                 partition_transporter, regular_subgroups)

__version__ = "0.1.0"
