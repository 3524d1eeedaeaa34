"""Higher Bruhat orders, the suspension conditions, and sphericity certificates.

The library enumerates the higher Bruhat orders B(n,k) under single-step
inclusion and under ordinary inclusion, checks the five suspension
conditions on dissected bounded posets exhaustively, and certifies that
a proper part is homotopy equivalent to a sphere by recognising its
beat-point core as the proper part of a Boolean lattice.  An export
writes a Bruhat instance's dissection (P, Q, the colouring and the maps
f, i and j) straight from its enumeration.  The library holds only what
the certifier runs: the paper's constructive proofs of the conditions
(admissible permutations, build-up chains, interval descent, the
suspension of a complex), the row builds of the lemma's comparison maps
and coned carriers, which follow from the conditions by proof, and the
order complexes and integer homology that cross-check the Boolean
recognition are test oracles (see the homology module).
"""

from .bruhat import (
    BruhatOrder,
    OrderKind,
    descent_conditions,
    enumerate_bruhat,
    to_poset,
)
from .errors import (
    InconsistentSetError,
    InvariantError,
    NotAPosetError,
    NotBoundedError,
    NotClosedError,
    ParameterError,
    ResourceLimitError,
)
from .posets import (
    FiniteBoundedPoset,
    beat_core,
    boolean_core,
    check_monotone,
    from_covers,
    from_relation,
    proper_part,
)
from .subsets import ConsistentSet, GroundParams
from .suspension_check import ConditionReport, DissectionInstance, check_conditions

__version__ = "0.1.0"
