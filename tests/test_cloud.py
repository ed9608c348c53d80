"""The projection cloud that the closed-form diagram rests on.

No stage builds the cloud: ``persistence`` works from its distances in
closed form, and ``inspect`` prints it for display. These tests pin the
cloud's definition, in the oracle that the diagram tests sweep, and its
distances.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from topmix.errors import ContractError

from oracles import build_point_cloud, closed_form_cloud_distances, euclidean_distances

SQRT5 = math.sqrt(5.0)
SQRT2 = math.sqrt(2.0)


def _sorted_upper(dist):
    n = dist.shape[0]
    return sorted(dist[np.triu_indices(n, k=1)].tolist())


class TestProject:
    """The projection p_i(x), x with coordinate i zeroed, is row i of the cloud."""

    def test_zeroes_first_coordinate(self):
        assert build_point_cloud(np.array([6.0, 8.0]))[1].tolist() == [0.0, 8.0]

    def test_zeroes_second_coordinate(self):
        assert build_point_cloud(np.array([7.0, 7.0]))[2].tolist() == [7.0, 0.0]

    def test_out_of_range(self):
        # no coordinate to project: an empty vector, or a matrix of rows
        with pytest.raises(ContractError):
            build_point_cloud(np.array([]))
        with pytest.raises(ContractError):
            build_point_cloud(np.array([[1.0, 2.0]]))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8), st.data())
    def test_idempotent(self, xs, data):
        x = np.asarray(xs)
        i = data.draw(st.integers(1, len(xs)))
        once = build_point_cloud(x)[i]
        assert np.array_equal(build_point_cloud(once)[i], once)


class TestBuildCloud:
    def test_two_dims(self):
        cloud = build_point_cloud(np.array([6.0, 8.0]))
        assert cloud.tolist() == [[6.0, 8.0], [0.0, 8.0], [6.0, 0.0]]

    def test_three_dims(self):
        cloud = build_point_cloud(np.array([7.0, 8.0, 9.0]))
        assert cloud.tolist() == [
            [7.0, 8.0, 9.0],
            [0.0, 8.0, 9.0],
            [7.0, 0.0, 9.0],
            [7.0, 8.0, 0.0],
        ]

    def test_zero_vector_collapses_to_origin(self):
        cloud = build_point_cloud(np.zeros(4))
        assert np.array_equal(cloud, np.zeros((5, 4)))

    def test_cloud_size_is_dim_plus_one(self):
        for m in (1, 2, 7, 25):
            cloud = build_point_cloud(np.arange(1.0, m + 1.0))
            assert cloud.shape == (m + 1, m)

    def test_rejects_non_finite(self):
        with pytest.raises(ContractError):
            build_point_cloud(np.array([1.0, np.nan]))


class TestPairwiseDistances:
    """The cloud's distances, which the closed-form diagram rests on."""

    def test_worked_example_six_eight(self):
        dist = euclidean_distances(build_point_cloud(np.array([6.0, 8.0])))
        assert _sorted_upper(dist) == [6.0, 8.0, 10.0]

    def test_worked_example_seven_seven(self):
        dist = euclidean_distances(build_point_cloud(np.array([7.0, 7.0])))
        assert _sorted_upper(dist) == pytest.approx([7.0, 7.0, 7 * SQRT2], rel=1e-12)

    def test_origin_cloud_all_zero(self):
        dist = euclidean_distances(build_point_cloud(np.zeros(3)))
        assert np.array_equal(dist, np.zeros((4, 4)))

    def test_matches_closed_forms(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.uniform(-30, 30, size=rng.integers(1, 10))
            generic = _sorted_upper(euclidean_distances(build_point_cloud(x)))
            closed = closed_form_cloud_distances(x)
            assert generic == pytest.approx(closed, rel=1e-12)


def test_symmetry_breaking_discrimination():
    """The multiset coincidence for mirrored rows, and its removal by the offset."""
    x, y = np.array([1.0, 2.0]), np.array([2.0, 1.0])
    before_x = _sorted_upper(euclidean_distances(build_point_cloud(x)))
    before_y = _sorted_upper(euclidean_distances(build_point_cloud(y)))
    assert before_x == pytest.approx([1.0, 2.0, SQRT5], rel=1e-12)
    assert before_x == before_y

    v = np.array([5.0, 6.0])
    after_x = _sorted_upper(euclidean_distances(build_point_cloud(x + v)))
    after_y = _sorted_upper(euclidean_distances(build_point_cloud(y + v)))
    assert after_x == pytest.approx([6.0, 8.0, 10.0], rel=1e-12)
    assert after_y == pytest.approx([7.0, 7.0, 7 * SQRT2], rel=1e-12)
    assert after_x != after_y
