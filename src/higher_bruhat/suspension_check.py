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
            if not 0 <= g < len(self.p.labels):
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
    """Exhaustively verify the five conditions plus structural preconditions."""
    p, q = inst.p, inst.q
    green = inst.green
    lbl = p.labels
    qlbl = q.labels

    pre = [
        Check("p_bounded", True),
        Check("q_bounded", True),
        Check(
            "q_nondegenerate",
            q.bottom != q.top,
            None if q.bottom != q.top else f"bottom and top of Q coincide at {qlbl[q.bottom]}",
        ),
    ]
    for name, m in (("f_monotone", inst.f), ("i_monotone", inst.i), ("j_monotone", inst.j)):
        ok, violations = check_monotone(m)
        src = m.source.labels
        witness = None
        if not ok:
            x, y = violations[0]
            witness = f"{src[x]} <= {src[y]} but images are incomparable or reversed"
        pre.append(Check(name, ok, witness))

    conditions = []

    # green elements form a down-set: nothing red lies below the union of
    # the green down-sets; a failure names the first green element in
    # index order with the lowest red element below it
    witness = None
    down = p.down
    red = ((1 << len(lbl)) - 1) & ~sum(1 << y for y in green)
    if reduce(or_, (down[y] for y in green), 0) & red:
        y = next(y for y in sorted(green) if down[y] & red)
        stray = down[y] & red
        x = (stray & -stray).bit_length() - 1
        witness = f"{lbl[x]} <= {lbl[y]} with {lbl[y]} green but {lbl[x]} red"
    conditions.append(Check("green_is_down_set", witness is None, witness))

    # f composed with i and with j is the identity on Q
    witness = None
    for a in range(len(qlbl)):
        if inst.f.images[inst.i.images[a]] != a:
            witness = f"f(i({qlbl[a]})) != {qlbl[a]}"
            break
        if inst.f.images[inst.j.images[a]] != a:
            witness = f"f(j({qlbl[a]})) != {qlbl[a]}"
            break
    conditions.append(Check("compositions_identity", witness is None, witness))

    # image of i is green, image of j is red
    witness = None
    for a in range(len(qlbl)):
        if inst.i.images[a] not in green:
            witness = f"i({qlbl[a]}) = {lbl[inst.i.images[a]]} is red"
            break
        if inst.j.images[a] in green:
            witness = f"j({qlbl[a]}) = {lbl[inst.j.images[a]]} is green"
            break
    conditions.append(Check("images_two_colored", witness is None, witness))

    # i(f(x)) <= x <= j(f(x)) for every x
    witness = None
    for x in range(len(lbl)):
        a = inst.f.images[x]
        if not p.le(inst.i.images[a], x):
            witness = f"i(f({lbl[x]})) is not below {lbl[x]}"
            break
        if not p.le(x, inst.j.images[a]):
            witness = f"j(f({lbl[x]})) is not above {lbl[x]}"
            break
    conditions.append(Check("sandwich", witness is None, witness))

    # fiber over bottom of Q is red off the bottom of P; dually at the top
    witness = None
    for x in range(len(lbl)):
        if inst.f.images[x] == q.bottom and x != p.bottom and x in green:
            witness = f"{lbl[x]} is green in the fiber over the bottom of Q"
            break
        if inst.f.images[x] == q.top and x != p.top and x not in green:
            witness = f"{lbl[x]} is red in the fiber over the top of Q"
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
    nq = len(q.labels)
    doubled = product_with_two_chain(q)
    bounds_p, bounds_z = (p.bottom, p.top), (doubled.bottom, doubled.top)

    g_images = [0] * len(p.labels)
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

    h_images = [0] * len(doubled.labels)
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
    elements, and every comparable pair a <= b is itself a chain, so
    checking each comparable pair of the proper part covers every chain.
    A failure names the pair as the chain a<b (or a, when a = b).
    """
    p = inst.p
    up, down = p.leq, p.down
    bounds = (p.bottom, p.top)
    proper = proper_part(p)

    def chain(a: int, b: int) -> str:
        return p.labels[a] if a == b else f"{p.labels[a]}<{p.labels[b]}"

    failures = []
    pairs = 0
    for a in _bits(proper):
        lo = inst.i.images[inst.f.images[a]]
        for b in _bits(up[a] & proper):
            pairs += 1
            hi = inst.j.images[inst.f.images[b]]
            apex = None
            if lo not in bounds:
                apex = lo
            elif hi not in bounds:
                apex = hi
            if apex is None:
                failures.append(f"chain {chain(a, b)}: neither carrier endpoint is proper")
                continue
            carrier = up[lo] & down[hi] & proper
            if not carrier >> apex & 1:
                failures.append(
                    f"chain {chain(a, b)}: apex {p.labels[apex]} outside its carrier"
                )
    total = count_chains(p, proper)
    return CarrierReport(
        total_chains=total,
        chains_checked=total,
        pairs_checked=pairs,
        failures=tuple(failures),
        notes=(HOMOTOPY_DISCLAIMER,),
    )
