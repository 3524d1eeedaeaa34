import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constructions import from_facets, suspension
from helpers import (
    dense_matmul,
    homology_dict,
    product_with_two_chain,
    proper_part_complex,
    random_bounded_poset,
    random_complex,
    snf_by_minor_gcds,
)
from higher_bruhat import homology
from higher_bruhat.bruhat import OrderKind, enumerate_bruhat, to_poset
from higher_bruhat.complexes import SimplicialComplex, make_complex
from higher_bruhat.errors import NotClosedError, ParameterError, ResourceLimitError
from higher_bruhat.homology import (
    IntegerMatrix,
    boundary_matrices,
    is_sphere_homology,
    reduced_homology,
    smith_normal_form,
)
from higher_bruhat.subsets import GroundParams

EMPTY = make_complex(0, [])
TWO_POINTS = from_facets(2, [[0], [1]])
TWO_EDGES = from_facets(4, [[0, 1], [2, 3]])
HOLLOW_TRIANGLE = from_facets(3, [[0, 1], [0, 2], [1, 2]])
SOLID_TRIANGLE = from_facets(3, [[0, 1, 2]])
# minimal 6-vertex triangulation of the real projective plane
RP2 = from_facets(
    6,
    [
        [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
        [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
    ],
)
# an identity block beside a block whose invariant factors are 2 and 6
MIXED_BLOCKS = IntegerMatrix.from_dense(
    [[int(r == c) for c in range(50)] + [0, 0] for r in range(50)]
    + [[0] * 50 + [2, 4], [0] * 50 + [4, 2]]
)


@st.composite
def sparse_dense_matrices(draw, max_side=9):
    """Mostly-zero integer matrices that mix units with non-unit entries."""
    values = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, -4, 6])
    rows = draw(st.integers(min_value=1, max_value=max_side))
    cols = draw(st.integers(min_value=1, max_value=max_side))
    return [[draw(values) for _ in range(cols)] for _ in range(rows)]


class TestComplexConstruction:
    def test_closure_generated(self):
        assert SOLID_TRIANGLE.f_vector() == (3, 3, 1)

    def test_closure_verified(self):
        with pytest.raises(NotClosedError):
            make_complex(3, [[0, 1, 2]])

    def test_vertex_range_checked(self):
        with pytest.raises(ParameterError):
            make_complex(2, [[0, 5]])

    def test_repeated_vertices_rejected(self):
        with pytest.raises(ParameterError):
            make_complex(3, [[1, 1]])

    def test_empty_complex(self):
        assert EMPTY.dim == -1
        assert EMPTY.num_simplices() == 1
        assert EMPTY.reduced_euler() == -1

    def test_colex_face_order(self):
        assert HOLLOW_TRIANGLE.faces[1] == ((0, 1), (0, 2), (1, 2))


class TestBoundaryMatrices:
    def test_single_edge(self):
        edge = from_facets(2, [[0, 1]])
        aug, d1 = boundary_matrices(edge)
        assert aug.to_dense() == [[1, 1]]
        assert d1.to_dense() == [[-1], [1]]

    def test_triangle_rank(self):
        mats = boundary_matrices(HOLLOW_TRIANGLE)
        _, rank = smith_normal_form(mats[1])
        assert rank == 2

    def test_boundary_squares_to_zero(self):
        rng = random.Random(2)
        complexes = [RP2, HOLLOW_TRIANGLE, SOLID_TRIANGLE]
        complexes.append(
            proper_part_complex(
                to_poset(enumerate_bruhat(GroundParams(4, 1)), OrderKind.SINGLE_STEP)
            )
        )
        complexes += [random_complex(rng) for _ in range(10)]
        for cx in complexes:
            mats = boundary_matrices(cx)
            for a, b in zip(mats, mats[1:]):
                product = dense_matmul(a.to_dense(), b.to_dense())
                assert all(all(v == 0 for v in row) for row in product)

    def test_not_closed_rejected(self):
        broken = SimplicialComplex(3, (((0,), (1,)), ((0, 1), (1, 2))))
        with pytest.raises(NotClosedError):
            boundary_matrices(broken)


class TestSmithNormalForm:
    def test_identity(self):
        factors, rank = smith_normal_form(IntegerMatrix.from_dense([[1, 0], [0, 1]]))
        assert factors == (1, 1) and rank == 2

    def test_diagonal_already_ordered(self):
        factors, rank = smith_normal_form(IntegerMatrix.from_dense([[2, 0], [0, 4]]))
        assert factors == (2, 4) and rank == 2

    def test_gcd_and_determinant(self):
        factors, rank = smith_normal_form(IntegerMatrix.from_dense([[2, 1], [1, 2]]))
        assert factors == (1, 3) and rank == 2

    def test_three_by_three_with_torsion(self):
        dense = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        expected = snf_by_minor_gcds(dense)
        got = smith_normal_form(IntegerMatrix.from_dense(dense))
        assert got == expected == ((2, 2, 156), 3)

    def test_zero_matrix(self):
        factors, rank = smith_normal_form(IntegerMatrix(2, 3, ()))
        assert factors == () and rank == 0

    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_minor_gcd_oracle(self, dense):
        assert smith_normal_form(IntegerMatrix.from_dense(dense)) == snf_by_minor_gcds(dense)

    def test_identity_block_beside_torsion_block(self):
        assert smith_normal_form(MIXED_BLOCKS) == ((1,) * 50 + (2, 6), 52)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_row_and_column_permutations(self, data):
        dense = data.draw(sparse_dense_matrices())
        row_order = data.draw(st.permutations(range(len(dense))))
        col_order = data.draw(st.permutations(range(len(dense[0]))))
        permuted = [[dense[r][c] for c in col_order] for r in row_order]
        expected = smith_normal_form(IntegerMatrix.from_dense(dense))
        assert smith_normal_form(IntegerMatrix.from_dense(permuted)) == expected
        if len(dense) <= 6 and len(dense[0]) <= 6:
            assert expected == snf_by_minor_gcds(dense)

    def test_unit_pivots_skip_the_divisibility_chain(self, monkeypatch):
        received = []
        chain = homology._divisibility_chain

        def recording(values):
            received.append(list(values))
            return chain(values)

        monkeypatch.setattr(homology, "_divisibility_chain", recording)
        b41 = to_poset(enumerate_bruhat(GroundParams(4, 1)), OrderKind.SINGLE_STEP)
        mats = boundary_matrices(RP2) + boundary_matrices(proper_part_complex(b41))
        mats += [MIXED_BLOCKS, IntegerMatrix.from_dense([[2, -1], [-1, 2]])]
        for mat in mats:
            smith_normal_form(mat)
        assert [2] in received and [2, 6] in received and [3] in received
        assert all(1 not in values for values in received)

    def test_matrix_validation(self):
        with pytest.raises(ParameterError):
            IntegerMatrix(1, 1, ((0, 0, 0),))
        with pytest.raises(ParameterError):
            IntegerMatrix(1, 1, ((0, 0, 1), (0, 0, 2)))
        with pytest.raises(ParameterError):
            IntegerMatrix(1, 1, ((0, 3, 1),))


class TestReducedHomology:
    def test_empty_complex_is_minus_one_sphere(self):
        report = reduced_homology(EMPTY)
        assert report.betti_at(-1) == 1
        assert is_sphere_homology(report, -1)

    def test_two_points(self):
        report = reduced_homology(TWO_POINTS)
        assert homology_dict(report) == {0: (1, ())}
        assert is_sphere_homology(report, 0)

    def test_two_disjoint_edges(self):
        report = reduced_homology(TWO_EDGES)
        assert homology_dict(report) == {0: (1, ())}
        assert is_sphere_homology(report, 0)

    def test_hollow_triangle_is_circle(self):
        report = reduced_homology(HOLLOW_TRIANGLE)
        assert homology_dict(report) == {1: (1, ())}
        assert is_sphere_homology(report, 1)

    def test_cone_is_acyclic(self):
        report = reduced_homology(SOLID_TRIANGLE)
        assert homology_dict(report) == {}
        for d in range(-1, 3):
            assert not is_sphere_homology(report, d)

    def test_projective_plane_torsion(self):
        report = reduced_homology(RP2)
        assert homology_dict(report) == {1: (0, (2,))}
        assert report.euler_from_betti() == report.euler_from_faces() == 0
        assert not is_sphere_homology(report, 1)

    def test_euler_consistency(self):
        rng = random.Random(9)
        complexes = [EMPTY, HOLLOW_TRIANGLE] + [random_complex(rng) for _ in range(15)]
        for cx in complexes:
            report = reduced_homology(cx)
            assert type(report.euler_from_betti()) is int
            assert type(report.euler_from_faces()) is int
            assert report.euler_from_betti() == report.euler_from_faces()
            assert report.euler_from_faces() == cx.reduced_euler()

    def test_budget_enforced(self):
        with pytest.raises(ResourceLimitError):
            reduced_homology(RP2, max_simplices=10)

    def test_degrees_outside_range_vanish(self):
        report = reduced_homology(HOLLOW_TRIANGLE)
        assert report.betti_at(5) == 0
        assert report.torsion_at(5) == ()
        assert report.betti_at(-2) == 0


class TestSuspension:
    def test_of_empty_is_two_points(self):
        sus = suspension(EMPTY)
        assert sus.f_vector() == (2,)
        assert homology_dict(reduced_homology(sus)) == {0: (1, ())}

    def test_of_two_points_is_circle(self):
        sus = suspension(TWO_POINTS)
        assert sus.f_vector() == (4, 4)
        assert is_sphere_homology(reduced_homology(sus), 1)

    def test_no_face_contains_both_apexes(self):
        sus = suspension(HOLLOW_TRIANGLE)
        a, b = HOLLOW_TRIANGLE.num_vertices, HOLLOW_TRIANGLE.num_vertices + 1
        for fs in sus.faces:
            for face in fs:
                assert not (a in face and b in face)

    def test_degree_shift_on_random_complexes(self):
        rng = random.Random(17)
        for _ in range(12):
            cx = random_complex(rng)
            plain = reduced_homology(cx)
            lifted = reduced_homology(suspension(cx))
            for d in range(-1, lifted.max_degree + 1):
                assert lifted.betti_at(d) == plain.betti_at(d - 1)
                assert lifted.torsion_at(d) == plain.torsion_at(d - 1)

    def test_rp2_suspension_keeps_torsion(self):
        report = reduced_homology(suspension(RP2))
        assert homology_dict(report) == {2: (0, (2,))}

    def test_matches_doubled_poset_construction(self):
        rng = random.Random(23)
        posets = [
            to_poset(enumerate_bruhat(GroundParams(2, 1)), OrderKind.SINGLE_STEP),
            to_poset(enumerate_bruhat(GroundParams(3, 1)), OrderKind.SINGLE_STEP),
            to_poset(enumerate_bruhat(GroundParams(4, 2)), OrderKind.SINGLE_STEP),
        ]
        posets += [random_bounded_poset(rng) for _ in range(5)]
        for q in posets:
            via_product = reduced_homology(proper_part_complex(product_with_two_chain(q)))
            via_suspension = reduced_homology(suspension(proper_part_complex(q)))
            assert homology_dict(via_product) == homology_dict(via_suspension)


class TestSpherePredicate:
    def test_empty_only_at_minus_one(self):
        report = reduced_homology(EMPTY)
        assert is_sphere_homology(report, -1)
        assert not is_sphere_homology(report, 0)

    def test_dimension_validated(self):
        with pytest.raises(ParameterError):
            is_sphere_homology(reduced_homology(EMPTY), -2)
