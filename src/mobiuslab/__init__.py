"""Exact computations with Mobius functions of finite posets: incidence
matrices, lattice identities, matroid polynomials, tree distance
matrices, and support bounds for null designs."""

from .complexes import (MonotoneMap, chain_counts, dismantle,
                        euler_characteristic, is_dismantlable, order_complex,
                        retract_check, verify_baclawski)
from .guards import SizeGuardError, check_size
from .instances import (Graph, boolean_lattice, chain, complete_graph,
                        contraction_lattice, cycle_graph, divisor_lattice,
                        partition_lattice, random_connected_graph,
                        random_graph, random_poset, random_tree,
                        subspace_lattice)
from .inversion import (derangements, derangements_bruteforce, forward_up,
                        invert_down, invert_up, lindstrom_wilf_det)
from .lattices import (Lattice, LatticeError, MeetSemilattice,
                       NotRankedError, basterfield_kelly_check, cutset_mobius,
                       dowling_complement_check, dowling_wilson_check,
                       is_geometric, is_lower_semimodular,
                       is_modular_element, is_modular_lattice,
                       is_semimodular, kung_check, modular_factorization,
                       point_deletion, top_heavy_check, walker_complement_check,
                       weisner_check, whitney_numbers, whitney_rank_sums)
from .matroid import (characteristic_polynomial, chromatic_oracle,
                      chromatic_polynomial, codeword_weight_check,
                      coloring_count, nbc_counts, stirling_first_unsigned,
                      whitney_theorem_check)
from .nulldesigns import (restrict_to_interval, strength, support_lower_bound,
                          verify_support_theorem)
from .posets import Poset, PosetError, poset_from_json, poset_to_json
from .treedist import RootedTree, distance_matrix, verify_tree

__all__ = [name for name in dir() if not name.startswith("_")]
