"""Mechanical checking of the suspension conditions on a dissected poset.

Given bounded posets P and Q, a green/red dissection of P, and monotone
maps f: P -> Q and i, j: Q -> P, five conditions together give that the
proper part of P is homotopy equivalent to the suspension of the proper
part of Q.  This module checks the conditions and their preconditions
exhaustively.  The lemma's proof takes two further steps, the comparison
maps and the coned carriers, and both follow from the five conditions
alone, as shown below; check-lemma reports them as proved whenever the
conditions pass, whichever route decided them.  The homotopy
equivalence itself is not certified.

The conditions, for every x in P and a in Q: the green elements form a
down-set (so the red ones an up-set); f(i(a)) = f(j(a)) = a; i(a) is
green and j(a) red; i(f(x)) <= x <= j(f(x)); the fibre of f over the
bottom of Q is red off the bottom of P, and the fibre over the top of Q
green off the top of P.  Write 0 and 1 for the bounds.

- f(0_P) = 0_Q, because f(0_P) <= f(i(0_Q)) = 0_Q; dually f(1_P) = 1_Q.
  0_P is green, lying below the green i(0_Q), and 1_P red, lying above
  the red j(1_Q).
- The proof maps are well defined.  g sends a green proper x to
  (f(x), 0) and a red one to (f(x), 1) in Q x {0,1}; h sends a proper
  (a, 0) to i(a) and a proper (a, 1) to j(a); both send bounds to
  bounds.  A proper x sent to (0_Q, 0) would be green off 0_P in the
  fibre over 0_Q, and one sent to (1_Q, 1) red off 1_P in the fibre over
  1_Q, which the extreme fibres forbid.  i(a) = 0_P would give a =
  f(i(a)) = f(0_P) = 0_Q, and i(a) is green while 1_P is red, so a
  proper (a, 0) goes to a proper element; dually a proper (a, 1).
- g is monotone, since f is and the red elements form an up-set.  h is
  monotone within each layer, since i and j are, and across the layers
  by the sandwich at i(b): for a <= b, i(a) <= i(b) <= j(f(i(b))) = j(b).
- g(h(a, s)) = (a, s), by the compositions and the images' colours.
- Every carrier cones.  The carrier of a chain of the proper part, from
  a up to b, is the interval from i(f(a)) to j(f(b)) within the proper
  part; its apex is the lower end when that is proper, else the upper
  end.  By the sandwich, i(f(a)) <= a <= b <= j(f(b)), so the apex lies
  in the carrier and is comparable to all of it.  The lower end lies
  below the proper a and the upper end above b, so both ends are bounds
  only when i(f(a)) = 0_P and j(f(b)) = 1_P.  Then f(a) = 0_Q and
  f(b) = 1_Q, so a is red and b green by the extreme fibres, with a <= b,
  which the down-set forbids.

The test suite builds g, h and every carrier on the rows, as oracles of
these proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .errors import ParameterError
from .posets import FiniteBoundedPoset, MonotoneMap, check_monotone

__all__ = [
    "DissectionInstance",
    "Check",
    "ConditionReport",
    "check_conditions",
    "CONDITION_NAMES",
    "HOMOTOPY_DISCLAIMER",
    "PROVED_FROM",
]

HOMOTOPY_DISCLAIMER = (
    "Checks certify the five conditions mechanically; the proof maps and "
    "carrier cones are proved from them, and homotopy equivalence itself is "
    "not certified."
)

# What the proof maps and carrier cones are proved from.
PROVED_FROM = "the five conditions"

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
