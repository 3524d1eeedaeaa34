"""Higher Bruhat orders, order complexes, and exact homology certificates.

The library enumerates the higher Bruhat orders B(n,k) under single-step
inclusion and under ordinary inclusion, mechanically checks the five
suspension conditions on dissected bounded posets, and certifies sphere
homology of proper-part order complexes by exact integer Smith normal
form.
"""

from .bruhat import (
    AdmissiblePermutation,
    BruhatOrder,
    BuildupSequence,
    OrderKind,
    admissible_permutation,
    buildup_sequence,
    dissection_instance,
    dual_buildup_sequence,
    enumerate_bruhat,
    is_green,
    leq_inclusion,
    leq_single_step,
    map_f,
    map_i,
    map_j,
    to_poset,
)
from .complexes import SimplicialComplex, from_facets, make_complex, suspension
from .errors import (
    ConditionViolationError,
    InconsistentSetError,
    InvariantError,
    NotAPosetError,
    NotBoundedError,
    NotClosedError,
    ParameterError,
    ResourceLimitError,
)
from .homology import (
    HomologyReport,
    IntegerMatrix,
    boundary_matrices,
    is_sphere_homology,
    reduced_homology,
    smith_normal_form,
)
from .posets import (
    FiniteBoundedPoset,
    MonotoneMap,
    check_monotone,
    from_covers,
    from_relation,
    order_complex,
    product_with_two_chain,
    proper_part,
)
from .subsets import (
    ConsistentSet,
    GroundParams,
    KSubset,
    Packet,
    complement,
    enumerate_subsets,
    find_interval,
    internal_gaps,
    is_consistent,
    packet_of,
    violating_packets,
)
from .suspension_check import (
    CarrierReport,
    ConditionReport,
    DissectionInstance,
    build_proof_maps,
    carrier_cone_check,
    check_conditions,
)

__version__ = "0.1.0"
