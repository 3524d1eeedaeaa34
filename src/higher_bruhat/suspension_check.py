"""Mechanical checking of the suspension conditions on a dissected poset.

Given bounded posets P and Q, a green/red dissection of P, and maps
f: P -> Q and i, j: Q -> P, five conditions together guarantee that the
proper part of P is homotopy equivalent to the suspension of the proper
part of Q.  This module checks the conditions exhaustively, builds the
comparison maps used in the argument, and verifies that every chain
has a coned carrier.  Homotopy equivalence itself is NOT certified:
these are hypothesis and proof-skeleton checks; the homological
consequence is certified separately by the homology module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .errors import ConditionViolationError, ParameterError
from .posets import (
    FiniteBoundedPoset,
    MonotoneMap,
    _bits,
    check_monotone,
    count_chains,
    product_with_two_chain,
    proper_part,
)

__all__ = [
    "DissectionInstance",
    "Check",
    "ConditionReport",
    "CarrierReport",
    "check_conditions",
    "build_proof_maps",
    "carrier_cone_check",
    "CONDITION_NAMES",
    "HOMOTOPY_DISCLAIMER",
]

HOMOTOPY_DISCLAIMER = (
    "Checks certify the five conditions and the proof skeleton mechanically; "
    "homotopy equivalence itself is not certified."
)

CONDITION_NAMES = (
    "green_is_down_set",
    "compositions_identity",
    "images_two_colored",
    "sandwich",
    "extreme_fibers",
)


@dataclass(frozen=True)
class DissectionInstance:
    """Posets P and Q, a green element set of P, and maps f, i, j."""

    p: FiniteBoundedPoset
    q: FiniteBoundedPoset
    green: frozenset[int]
    f: MonotoneMap
    i: MonotoneMap
    j: MonotoneMap

    def __post_init__(self) -> None:
        if self.f.source != self.p or self.f.target != self.q:
            raise ParameterError("f must map P to Q")
        if self.i.source != self.q or self.i.target != self.p:
            raise ParameterError("i must map Q to P")
        if self.j.source != self.q or self.j.target != self.p:
            raise ParameterError("j must map Q to P")
        for g in self.green:
            if not 0 <= g < len(self.p):
                raise ParameterError(f"green index {g} out of range")


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class ConditionReport:
    preconditions: tuple[Check, ...]
    conditions: tuple[Check, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.preconditions + self.conditions)

    def failures(self) -> list[Check]:
        return [c for c in self.preconditions + self.conditions if not c.passed]


def check_conditions(inst: DissectionInstance) -> ConditionReport:
    """Exhaustively verify the five conditions plus structural preconditions.

    Labels are read only to write a witness, so a pass renders none.
    """
    p, q = inst.p, inst.q
    green = inst.green

    pre = [
        Check("p_bounded", True),
        Check("q_bounded", True),
        Check(
            "q_nondegenerate",
            q.bottom != q.top,
            None if q.bottom != q.top else f"bottom and top of Q coincide at {q.labels[q.bottom]}",
        ),
    ]
    for name, m in (("f_monotone", inst.f), ("i_monotone", inst.i), ("j_monotone", inst.j)):
        ok, violations = check_monotone(m)
        witness = None
        if not ok:
            src = m.source.labels
            x, y = violations[0]
            witness = f"{src[x]} <= {src[y]} but images are incomparable or reversed"
        pre.append(Check(name, ok, witness))

    conditions = []

    # green elements form a down-set: nothing red lies below the union of
    # the green down-sets; a failure names the first green element in
    # index order with the lowest red element below it
    witness = None
    down = p.down
    red = ((1 << len(p)) - 1) & ~sum(1 << y for y in green)
    if reduce(or_, (down[y] for y in green), 0) & red:
        y = next(y for y in sorted(green) if down[y] & red)
        stray = down[y] & red
        x = (stray & -stray).bit_length() - 1
        lbl = p.labels
        witness = f"{lbl[x]} <= {lbl[y]} with {lbl[y]} green but {lbl[x]} red"
    conditions.append(Check("green_is_down_set", witness is None, witness))

    # f composed with i and with j is the identity on Q
    witness = None
    for a in range(len(q)):
        if inst.f.images[inst.i.images[a]] != a:
            witness = f"f(i({q.labels[a]})) != {q.labels[a]}"
            break
        if inst.f.images[inst.j.images[a]] != a:
            witness = f"f(j({q.labels[a]})) != {q.labels[a]}"
            break
    conditions.append(Check("compositions_identity", witness is None, witness))

    # image of i is green, image of j is red
    witness = None
    for a in range(len(q)):
        if inst.i.images[a] not in green:
            witness = f"i({q.labels[a]}) = {p.labels[inst.i.images[a]]} is red"
            break
        if inst.j.images[a] in green:
            witness = f"j({q.labels[a]}) = {p.labels[inst.j.images[a]]} is green"
            break
    conditions.append(Check("images_two_colored", witness is None, witness))

    # i(f(x)) <= x <= j(f(x)) for every x
    witness = None
    for x in range(len(p)):
        a = inst.f.images[x]
        if not p.le(inst.i.images[a], x):
            witness = f"i(f({p.labels[x]})) is not below {p.labels[x]}"
            break
        if not p.le(x, inst.j.images[a]):
            witness = f"j(f({p.labels[x]})) is not above {p.labels[x]}"
            break
    conditions.append(Check("sandwich", witness is None, witness))

    # fiber over bottom of Q is red off the bottom of P; dually at the top
    witness = None
    for x in range(len(p)):
        if inst.f.images[x] == q.bottom and x != p.bottom and x in green:
            witness = f"{p.labels[x]} is green in the fiber over the bottom of Q"
            break
        if inst.f.images[x] == q.top and x != p.top and x not in green:
            witness = f"{p.labels[x]} is red in the fiber over the top of Q"
            break
    conditions.append(Check("extreme_fibers", witness is None, witness))

    return ConditionReport(tuple(pre), tuple(conditions))


def build_proof_maps(inst: DissectionInstance) -> tuple[MonotoneMap, MonotoneMap]:
    """Construct and verify the comparison maps between the proper parts.

    g sends a green proper x to (f(x), 0) and a red proper x to (f(x), 1)
    in Q x {0,1}; h sends a proper (a, 0) to i(a) and a proper (a, 1) to
    j(a) back in P.  Both are maps between the bounded posets that send
    bounds to bounds, so a map is monotone iff its restriction to the
    proper parts is: a pair involving a bound never violates.  Raises
    ConditionViolationError if either map sends a proper element to a
    bound, fails monotonicity, or g o h is not the identity on the proper
    part.  Assumes check_conditions passes; on broken instances the first
    violated obligation is reported.
    """
    p, q = inst.p, inst.q
    nq = len(q)
    doubled = product_with_two_chain(q)
    bounds_p, bounds_z = (p.bottom, p.top), (doubled.bottom, doubled.top)

    g_images = [0] * len(p)
    g_images[p.bottom], g_images[p.top] = bounds_z
    for x in _bits(proper_part(p)):
        side = 0 if x in inst.green else 1
        z = inst.f.images[x] + side * nq
        if z in bounds_z:
            raise ConditionViolationError(
                f"g is not well-defined: {p.labels[x]} maps to the bound "
                f"{doubled.labels[z]}"
            )
        g_images[x] = z
    g = MonotoneMap(p, doubled, tuple(g_images))

    h_images = [0] * len(doubled)
    h_images[doubled.bottom], h_images[doubled.top] = bounds_p
    proper_z = _bits(proper_part(doubled))
    for z in proper_z:
        a, side = z % nq, z // nq
        x = (inst.i if side == 0 else inst.j).images[a]
        if x in bounds_p:
            raise ConditionViolationError(
                f"h is not well-defined: {doubled.labels[z]} maps to the bound "
                f"{p.labels[x]}"
            )
        h_images[z] = x
    h = MonotoneMap(doubled, p, tuple(h_images))

    for name, m in (("g", g), ("h", h)):
        ok, violations = check_monotone(m)
        if not ok:
            x, y = violations[0]
            raise ConditionViolationError(
                f"{name} is not order-preserving on {m.source.labels[x]} <= "
                f"{m.source.labels[y]}"
            )
    for z in proper_z:
        if g.images[h.images[z]] != z:
            raise ConditionViolationError(
                f"g(h({doubled.labels[z]})) != {doubled.labels[z]}"
            )
    return g, h


@dataclass(frozen=True)
class CarrierReport:
    total_chains: int
    chains_checked: int
    pairs_checked: int
    failures: tuple[str, ...]
    notes: tuple[str, ...] = field(default=())

    @property
    def all_cones(self) -> bool:
        return not self.failures


def carrier_cone_check(inst: DissectionInstance) -> CarrierReport:
    """Verify that every chain of the proper part of P has a coned carrier.

    For a chain s of the proper part of P, the carrier is the closed
    interval from i(f(min s)) to j(f(max s)), intersected with the proper
    part.  At least one endpoint must itself be proper, and that endpoint,
    the apex, must lie in the carrier; the carrier is then a cone.  No
    carrier element can be incomparable to the apex, since the apex is
    either i(f(min s)), below the whole carrier, or j(f(max s)), above it.
    The carrier depends on s only through its least and greatest
    elements, and every comparable pair a <= b is itself a chain, so the
    chains are covered by the comparable pairs of the proper part.

    A pair a <= b decides through its fibre class (f(a), f(b)) alone, so
    each class is decided once.  One pass over the proper a builds, for
    each c in Q, fibre[c], the proper elements with f(a) = c, and
    above[c], the union of their up rows within the proper part.  A class
    (c, d) is realised by some pair iff above[c] meets fibre[d].  A
    monotone f realises only classes with c <= d, so d runs over the up
    row of c in Q.  Every member of above[c] lies in some fibre[d]; if
    one lies outside the fibres of that row, f is not monotone and a
    realised class was not tested.  Then, and when a tested class fails,
    the comparable pairs are walked to list the failures, each named as
    the chain a<b (or a, when a = b).  Otherwise every realised class, and
    so every pair and every chain, has a coned carrier.  pairs_checked
    counts the pairs as the popcounts of the same up rows.
    """
    p, q, f = inst.p, inst.q, inst.f.images
    proper = proper_part(p)
    fibre = [0] * len(q)
    above = [0] * len(q)
    pairs = 0
    for a in _bits(proper):
        row = p.leq[a] & proper
        fibre[f[a]] |= 1 << a
        above[f[a]] |= row
        pairs += row.bit_count()
    failures = [] if _classes_cone(inst, fibre, above) else _pair_failures(inst, proper)
    total = count_chains(p, proper)
    return CarrierReport(
        total_chains=total,
        chains_checked=total,
        pairs_checked=pairs,
        failures=tuple(failures),
        notes=(HOMOTOPY_DISCLAIMER,),
    )


def _cone_failure(p: FiniteBoundedPoset, lo: int, hi: int) -> str | None:
    """Why the carrier from lo to hi is not a cone, or None when it is.

    The apex is lo when lo is proper, else hi when hi is.  Being proper,
    it lies in the carrier iff lo <= apex <= hi, that is iff lo <= hi.
    """
    bounds = (p.bottom, p.top)
    if lo in bounds and hi in bounds:
        return "neither carrier endpoint is proper"
    if not p.le(lo, hi):
        apex = hi if lo in bounds else lo
        return f"apex {p.labels[apex]} outside its carrier"
    return None


def _classes_cone(inst: DissectionInstance, fibre: list[int], above: list[int]) -> bool:
    """True iff every realised fibre class is tested and has a coned carrier."""
    p, q, i, j = inst.p, inst.q, inst.i.images, inst.j.images
    for c, reach in enumerate(above):
        tested = 0
        for d in _bits(q.leq[c]):
            if reach & fibre[d] and _cone_failure(p, i[c], j[d]):
                return False
            tested |= fibre[d]
        if reach & ~tested:
            return False
    return True


def _pair_failures(inst: DissectionInstance, proper: int) -> list[str]:
    """The carrier failures of the comparable proper pairs of P, pair by pair."""
    p, f, i, j = inst.p, inst.f.images, inst.i.images, inst.j.images
    failures = []
    for a in _bits(proper):
        lo = i[f[a]]
        for b in _bits(p.leq[a] & proper):
            why = _cone_failure(p, lo, j[f[b]])
            if why:
                chain = p.labels[a] if a == b else f"{p.labels[a]}<{p.labels[b]}"
                failures.append(f"chain {chain}: {why}")
    return failures
