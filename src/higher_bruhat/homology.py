"""Exact reduced simplicial homology over the integers.

Boundary matrices carry an explicit augmentation into the empty-simplex
degree, so the homology of the empty complex is Z in degree -1 and the
suspension isomorphism holds uniformly.  All arithmetic is on Python
integers, with no floating point.  No library module imports this one or
complexes: they are the tests' oracle of the Boolean recognition that
certifies sphericity, kept in the package for the benchmark's tracer.
"""

from __future__ import annotations

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


def _add_line(lines, cross, dst: int, src: int, factor: int) -> None:
    """lines[dst] += factor * lines[src], mirrored into the crossing lines.

    With (rows, cols) this is a row operation, with (cols, rows) a column one.
    """
    ldst = lines[dst]
    for j, v in lines[src].items():
        nv = ldst.get(j, 0) + factor * v
        if nv:
            ldst[j] = cross[j][dst] = nv
        else:
            del ldst[j], cross[j][dst]


def _clear(lines, cross, i: int, j: int) -> None:
    """Reduce the other entries of cross[j] modulo the pivot lines[i][j]."""
    v = lines[i][j]
    for i2, x in list(cross[j].items()):
        if i2 != i and (q := x // v):
            _add_line(lines, cross, i2, i, -q)


def smith_normal_form(m: IntegerMatrix) -> tuple[tuple[int, ...], int]:
    """Invariant factors d1 | d2 | ... and the rank, by sparse elimination.

    Unit sweep: the columns are swept in index order, and in each column
    that holds a +-1 the pivot is the unit whose row has the fewest
    entries, which bounds the fill-in by that row's length.  Row
    operations clear the column; the pivot row and column are then
    dropped, since column operations would clear the rest of the row
    without touching any other row.  The sweep repeats until no unit
    entry is left.  Only then is the smallest entry gcd-reduced against
    its column and row: a remainder is a smaller entry and sends the
    search back to the sweep, and once the entry divides both it is
    dropped as a pivot.

    Every step is a unimodular row or column operation, so the matrix is
    equivalent to the diagonal of its pivots, and invariant factors do not
    depend on the order of reduction.  A unit divides every other pivot,
    so only the non-unit pivots go through the divisibility normalisation.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, dict[int, int]] = {}
    for r, c, v in m.entries:
        rows.setdefault(r, {})[c] = cols.setdefault(c, {})[r] = v

    def drop(r: int, c: int) -> None:
        for cc in rows.pop(r):
            del cols[cc][r]
        del cols[c]

    units = 0
    others: list[int] = []
    while True:
        swept = False
        for c in sorted(cols):
            unit_rows = [r for r, v in cols.get(c, {}).items() if v in (1, -1)]
            if unit_rows:
                r = min(unit_rows, key=lambda r: len(rows[r]))
                _clear(rows, cols, r, c)
                drop(r, c)
                units += 1
                swept = True
        if swept:
            continue
        smallest = min(
            ((abs(v), r, c) for r, rr in rows.items() for c, v in rr.items()),
            default=None,
        )
        if smallest is None:
            break
        v, r, c = smallest
        _clear(rows, cols, r, c)
        _clear(cols, rows, c, r)
        if len(rows[r]) == len(cols[c]) == 1:
            others.append(v)
            drop(r, c)

    return (1,) * units + tuple(_divisibility_chain(others)), units + len(others)


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
        return sum(-b if d % 2 else b for d, b in zip(self.degrees(), self.betti))

    def euler_from_faces(self) -> int:
        return sum(-f if d % 2 else f for d, f in zip(self.degrees(), self.face_counts))


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
