"""Exact reduced simplicial homology over the integers.

Boundary matrices carry an explicit augmentation into the empty-simplex
degree, so the homology of the empty complex is Z in degree -1 and the
suspension isomorphism holds uniformly.  All arithmetic is on Python
integers; no floating point enters the certified path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd

from .complexes import SimplicialComplex
from .errors import NotClosedError, ParameterError, ResourceLimitError

__all__ = [
    "IntegerMatrix",
    "HomologyReport",
    "boundary_matrices",
    "smith_normal_form",
    "reduced_homology",
    "is_sphere_homology",
    "DEFAULT_SIMPLEX_BUDGET",
]

DEFAULT_SIMPLEX_BUDGET = 500_000


@dataclass(frozen=True)
class IntegerMatrix:
    """A sparse integer matrix as (row, col, value) triples, exact arithmetic."""

    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for r, c, v in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ParameterError(f"entry ({r},{c}) out of range")
            if v == 0:
                raise ParameterError(f"explicit zero stored at ({r},{c})")
            if (r, c) in seen:
                raise ParameterError(f"duplicate entry at ({r},{c})")
            seen.add((r, c))

    @classmethod
    def from_dense(cls, dense) -> "IntegerMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        entries = tuple(
            (r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v
        )
        return cls(rows, cols, entries)

    def to_dense(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for r, c, v in self.entries:
            dense[r][c] = v
        return dense

    def nnz(self) -> int:
        return len(self.entries)


def boundary_matrices(x: SimplicialComplex) -> list[IntegerMatrix]:
    """Boundary operators of the augmented chain complex.

    Index d maps d-chains to (d-1)-chains; index 0 is the augmentation row
    sending every vertex to the empty simplex.  Deleting the t-th smallest
    vertex carries sign (-1)^t.
    """
    mats = [
        IntegerMatrix(
            1,
            len(x.faces[0]) if x.faces else 0,
            tuple((0, c, 1) for c in range(len(x.faces[0]) if x.faces else 0)),
        )
    ]
    for d in range(1, len(x.faces)):
        index = {face: i for i, face in enumerate(x.faces[d - 1])}
        entries = []
        for c, face in enumerate(x.faces[d]):
            for t in range(len(face)):
                facet = face[:t] + face[t + 1 :]
                try:
                    r = index[facet]
                except KeyError:
                    raise NotClosedError(f"missing face {facet} of {face}")
                entries.append((r, c, (-1) ** t))
        mats.append(IntegerMatrix(len(x.faces[d - 1]), len(x.faces[d]), tuple(entries)))
    return mats


def _divisibility_chain(values: list[int]) -> list[int]:
    """Normalize positive diagonal entries so each divides the next."""
    ds = sorted(values)
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i]:
                    g = gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    changed = True
        ds.sort()
    return ds


def smith_normal_form(m: IntegerMatrix) -> tuple[tuple[int, ...], int]:
    """Invariant factors d1 | d2 | ... and the rank, by sparse elimination.

    Pivots of magnitude 1 are preferred and chosen by a lazily maintained
    Markowitz cost (fill-in estimate); when none exists, the smallest
    nonzero entry is gcd-reduced against its row and column until it
    divides both, then eliminated.  Each elimination is a unimodular
    row/column operation, so the multiset of pivots is diagonal-equivalent
    to the input and normalizes to the invariant factors.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for r, c, v in m.entries:
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)

    heap: list[tuple[int, int, int]] = []
    for r, rr in rows.items():
        for c, v in rr.items():
            if v in (1, -1):
                heap.append(((len(rr) - 1) * (len(cols[c]) - 1), r, c))
    heapq.heapify(heap)

    def push_if_unit(r: int, c: int, v: int) -> None:
        if v in (1, -1):
            heapq.heappush(heap, ((len(rows[r]) - 1) * (len(cols[c]) - 1), r, c))

    def add_row_multiple(dst: int, src: int, factor: int) -> None:
        """row[dst] += factor * row[src]"""
        rdst = rows.setdefault(dst, {})
        for c, v in rows[src].items():
            nv = rdst.get(c, 0) + factor * v
            if nv:
                rdst[c] = nv
                cols.setdefault(c, set()).add(dst)
                push_if_unit(dst, c, nv)
            elif c in rdst:
                del rdst[c]
                cols[c].discard(dst)

    def add_col_multiple(dst: int, src: int, factor: int) -> None:
        """col[dst] += factor * col[src]"""
        for r in list(cols.get(src, ())):
            v = rows[r][src]
            nv = rows[r].get(dst, 0) + factor * v
            if nv:
                rows[r][dst] = nv
                cols.setdefault(dst, set()).add(r)
                push_if_unit(r, dst, nv)
            elif dst in rows[r]:
                del rows[r][dst]
                cols[dst].discard(r)

    def remove_pivot(r: int, c: int) -> None:
        for cc in rows[r]:
            cols[cc].discard(r)
        del rows[r]
        for rr in list(cols.get(c, ())):
            rows[rr].pop(c, None)
        cols.pop(c, None)

    def eliminate(r: int, c: int) -> None:
        v = rows[r][c]
        for r2 in list(cols[c]):
            if r2 == r:
                continue
            add_row_multiple(r2, r, -(rows[r2][c] // v))
        remove_pivot(r, c)

    def smallest_entry() -> tuple[int, int] | None:
        best = None
        for r, rr in rows.items():
            for c, v in rr.items():
                if best is None or abs(v) < abs(best[2]):
                    best = (r, c, v)
                    if abs(v) == 1:
                        return (r, c)
        return None if best is None else (best[0], best[1])

    def prepare_nonunit_pivot() -> tuple[int, int] | None:
        """Reduce until some entry divides its whole row and column."""
        while True:
            found = smallest_entry()
            if found is None:
                return None
            r, c = found
            v = rows[r][c]
            if v in (1, -1):
                return (r, c)
            reduced = False
            for r2 in list(cols[c]):
                if r2 == r:
                    continue
                q = rows[r2][c] // v
                if q:
                    add_row_multiple(r2, r, -q)
                if rows.get(r2, {}).get(c):
                    reduced = True  # remainder survives; a smaller entry exists
            for c2 in list(rows[r]):
                if c2 == c:
                    continue
                q = rows[r][c2] // v
                if q:
                    add_col_multiple(c2, c, -q)
                if rows[r].get(c2):
                    reduced = True
            if not reduced:
                return (r, c)

    pivots: list[int] = []
    while True:
        pivot = None
        while heap:
            cost, r, c = heapq.heappop(heap)
            v = rows.get(r, {}).get(c)
            if v not in (1, -1):
                continue
            actual = (len(rows[r]) - 1) * (len(cols[c]) - 1)
            if actual > cost:
                heapq.heappush(heap, (actual, r, c))
                continue
            pivot = (r, c)
            break
        if pivot is None:
            pivot = prepare_nonunit_pivot()
            if pivot is None:
                break
        r, c = pivot
        pivots.append(abs(rows[r][c]))
        eliminate(r, c)

    return tuple(_divisibility_chain(pivots)), len(pivots)


@dataclass(frozen=True)
class HomologyReport:
    """Reduced integer homology by degree, from -1 up to the complex dimension."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    face_counts: tuple[int, ...]

    @property
    def max_degree(self) -> int:
        return len(self.betti) - 2

    def degrees(self) -> range:
        return range(-1, self.max_degree + 1)

    def betti_at(self, d: int) -> int:
        if -1 <= d <= self.max_degree:
            return self.betti[d + 1]
        return 0

    def torsion_at(self, d: int) -> tuple[int, ...]:
        if -1 <= d <= self.max_degree:
            return self.torsion[d + 1]
        return ()

    def euler_from_betti(self) -> int:
        return sum((-1) ** d * b for d, b in zip(self.degrees(), self.betti))

    def euler_from_faces(self) -> int:
        return sum((-1) ** d * f for d, f in zip(self.degrees(), self.face_counts))


def reduced_homology(
    x: SimplicialComplex, *, max_simplices: int = DEFAULT_SIMPLEX_BUDGET
) -> HomologyReport:
    """Reduced homology of a closed complex; empty complex gives Z in degree -1."""
    total = x.num_simplices()
    if total > max_simplices:
        raise ResourceLimitError(
            f"complex has {total} simplices, over the budget of {max_simplices}"
        )
    mats = boundary_matrices(x)
    ranks = []
    factors = []
    for mat in mats:
        fs, rk = smith_normal_form(mat)
        ranks.append(rk)
        factors.append(fs)
    dim = x.dim
    f = [1] + [len(fs) for fs in x.faces]
    betti = []
    torsion = []
    for d in range(-1, dim + 1):
        rank_out = ranks[d] if d >= 0 else 0
        rank_in = ranks[d + 1] if d + 1 <= dim else 0
        betti.append(f[d + 1] - rank_out - rank_in)
        tor = factors[d + 1] if d + 1 <= dim else ()
        torsion.append(tuple(t for t in tor if t > 1))
    return HomologyReport(tuple(betti), tuple(torsion), tuple(f))


def is_sphere_homology(report: HomologyReport, d: int) -> bool:
    """True iff the report is exactly that of a d-sphere: Z in degree d, else 0."""
    if d < -1:
        raise ParameterError(f"sphere dimension must be >= -1, got {d}")
    if report.betti_at(d) != 1:
        return False
    for deg in report.degrees():
        if deg != d and report.betti_at(deg) != 0:
            return False
        if report.torsion_at(deg):
            return False
    return True
