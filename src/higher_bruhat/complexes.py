"""Abstract simplicial complexes with an explicit empty simplex convention.

Faces are tuples of strictly increasing vertex indices, grouped by
dimension and sorted by colex rank within each dimension, which fixes the
layout of every boundary matrix.  The empty simplex is always implicitly
present: the complex with no faces at all is the (-1)-sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NotClosedError, ParameterError

__all__ = ["SimplicialComplex", "make_complex"]


@dataclass(frozen=True)
class SimplicialComplex:
    num_vertices: int
    faces: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.faces) - 1

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, ..., f_dim); empty for the empty complex."""
        return tuple(len(fs) for fs in self.faces)

    def num_simplices(self) -> int:
        """All faces including the empty simplex."""
        return 1 + sum(len(fs) for fs in self.faces)

    def reduced_euler(self) -> int:
        """Alternating face-count sum including the empty simplex."""
        return -1 + sum((-1) ** d * len(fs) for d, fs in enumerate(self.faces))


def _normalize(num_vertices: int, faces: Iterable[Sequence[int]]):
    by_dim: list[set[tuple[int, ...]]] = []
    for face in faces:
        t = tuple(sorted(face))
        if len(set(t)) != len(t):
            raise ParameterError(f"face {face!r} has repeated vertices")
        if t and (t[0] < 0 or t[-1] >= num_vertices):
            raise ParameterError(f"face {face!r} references vertices out of range")
        if not t:
            continue  # the empty simplex is implicit
        d = len(t) - 1
        while len(by_dim) <= d:
            by_dim.append(set())
        by_dim[d].add(t)
    while by_dim and not by_dim[-1]:
        by_dim.pop()
    return by_dim


def verify_closed(x: SimplicialComplex) -> bool:
    """True iff every facet of every face is itself a face."""
    sets = [set(fs) for fs in x.faces]
    for d in range(1, len(x.faces)):
        lower = sets[d - 1] if d - 1 < len(sets) else set()
        for face in x.faces[d]:
            for t in range(len(face)):
                if face[:t] + face[t + 1 :] not in lower:
                    return False
    return True


def make_complex(num_vertices: int, faces: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Build a complex from faces, verifying downward closure."""
    by_dim = _normalize(num_vertices, faces)
    complex_ = SimplicialComplex(
        num_vertices=num_vertices,
        faces=tuple(tuple(sorted(fs, key=lambda t: t[::-1])) for fs in by_dim),
    )
    if not verify_closed(complex_):
        raise NotClosedError("simplex family is not closed under taking faces")
    return complex_
