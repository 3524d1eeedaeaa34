"""Higher Bruhat orders, the suspension conditions, and sphericity certificates.

The library enumerates the higher Bruhat orders B(n,k) under single-step
inclusion and under ordinary inclusion, checks the five suspension
conditions on dissected bounded posets exhaustively, and certifies that
the proper part of B(n,k) is homotopy equivalent to an (n-k-2)-sphere by
the paper's induction: the conditions hold on every level descent
B(m,k) -> B(m-1,k) down to B(k+1,k), whose proper part is empty
(descent_chain).  A bounded poset, the lemma's P or Q in an explicit
instance, is built from its covers alone (FiniteBoundedPoset), which
certifies it.  An export writes a Bruhat instance's dissection (P, Q,
the colouring and the maps f, i and j) straight from its enumeration,
and builds no poset under either order.  The library holds only what
the certifier runs.  The rest are test oracles: the paper's
constructive proofs of the conditions (admissible permutations, build-up
chains, interval descent, the suspension of a complex), an order's
poset and a poset given by relation rows (to_poset, rows_poset), the
row builds of the lemma's comparison maps and coned carriers, which
follow from the conditions by proof, the beat-point core and Boolean recognition that cross-check the
induction, and the order complexes and integer homology that cross-check
both (see the homology module).
"""

from .bruhat import (
    BruhatOrder,
    OrderKind,
    descent_chain,
    descent_conditions,
    enumerate_bruhat,
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
from .posets import FiniteBoundedPoset, check_monotone
from .subsets import ConsistentSet, GroundParams
from .suspension_check import ConditionReport, DissectionInstance, check_conditions

__version__ = "0.1.0"
