"""Higher Bruhat orders, order complexes, and exact homology certificates.

The library enumerates the higher Bruhat orders B(n,k) under single-step
inclusion and under ordinary inclusion, checks the five suspension
conditions on dissected bounded posets exhaustively, and certifies sphere
homology of proper-part order complexes by exact integer Smith normal
form on their beat-point cores.  An export writes a Bruhat instance's
dissection (P, Q, the colouring and the maps f, i and j) straight from
its enumeration.  The library holds only what the certifier runs:
the paper's constructive proofs of the conditions (admissible
permutations, build-up chains, interval descent, the suspension of a
complex) and the row builds of the lemma's comparison maps and coned
carriers, which follow from the conditions by proof, live in the test
suite, as oracles.
"""

from .bruhat import (
    BruhatOrder,
    OrderKind,
    descent_conditions,
    enumerate_bruhat,
    to_poset,
)
from .complexes import SimplicialComplex, make_complex
from .errors import (
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
    check_monotone,
    from_covers,
    from_relation,
    order_complex,
    proper_part,
)
from .subsets import ConsistentSet, GroundParams
from .suspension_check import ConditionReport, DissectionInstance, check_conditions

__version__ = "0.1.0"
