import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gawm.se2 import (
    DistanceParams,
    Pose2,
    se2_compose,
    se2_identity,
    se2_inverse,
    state_distance,
    wrap_angle,
)

from oracles import compose_matrix, inverse_matrix, pose_close, random_pose

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
poses = st.builds(Pose2, theta=angles, x=coords, y=coords)


def test_identity_element():
    e = se2_identity()
    assert e.theta == 0.0 and e.x == 0.0 and e.y == 0.0


@given(poses)
def test_identity_is_neutral(g):
    e = se2_identity()
    assert pose_close(se2_compose(e, g), g, 1e-12)
    assert pose_close(se2_compose(g, e), g, 1e-12)


def test_compose_identity_case():
    g = se2_compose(Pose2(0, 0, 0), Pose2(0.7, 2, -1))
    assert pose_close(g, Pose2(0.7, 2, -1), 1e-15)


def test_compose_quarter_turn():
    g = se2_compose(Pose2(math.pi / 2, 1, 0), Pose2(0, 1, 0))
    assert pose_close(g, Pose2(math.pi / 2, 1, 1), 1e-12)


@given(poses, poses)
def test_compose_matches_matrix_oracle(g1, g2):
    assert pose_close(se2_compose(g1, g2), compose_matrix(g1, g2), 1e-9)


def test_associativity_1000_random_triples():
    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(1000):
        g1, g2, g3 = (random_pose(rng) for _ in range(3))
        left = se2_compose(se2_compose(g1, g2), g3)
        right = se2_compose(g1, se2_compose(g2, g3))
        assert pose_close(left, right, 1e-12)


def test_inverse_of_identity():
    assert pose_close(se2_inverse(se2_identity()), se2_identity(), 0.0)


def test_inverse_quarter_turn():
    inv = se2_inverse(Pose2(math.pi / 2, 1, 0))
    assert pose_close(inv, Pose2(-math.pi / 2, 0, 1), 1e-12)


@given(poses)
def test_inverse_cancels(g):
    assert pose_close(se2_compose(g, se2_inverse(g)), se2_identity(), 1e-9)
    assert pose_close(se2_compose(se2_inverse(g), g), se2_identity(), 1e-9)


@given(poses)
def test_inverse_matches_matrix_oracle(g):
    assert pose_close(se2_inverse(g), inverse_matrix(g), 1e-9)


def test_inverse_is_involution():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(200):
        g = random_pose(rng)
        assert pose_close(se2_inverse(se2_inverse(g)), g, 1e-12)


def test_non_commutativity_witness():
    g1 = Pose2(math.pi / 2, 0, 0)
    g2 = Pose2(0, 1, 0)
    assert not pose_close(se2_compose(g1, g2), se2_compose(g2, g1), 1e-6)


@given(angles)
def test_wrap_range(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi


def test_wrap_half_turn_convention():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == math.pi


@given(angles)
def test_wrap_is_bitwise_idempotent(theta):
    w = wrap_angle(theta)
    assert wrap_angle(w) == w


def test_pose_stores_wrapped_angle():
    assert Pose2(3 * math.pi, 0, 0).theta == pytest.approx(math.pi)
    assert Pose2(-math.pi, 0, 0).theta == math.pi


def test_pose_rejects_non_finite():
    with pytest.raises(ValueError):
        Pose2(float("nan"), 0, 0)
    with pytest.raises(ValueError):
        Pose2(0, float("inf"), 0)


def test_distance_hand_values():
    assert state_distance(Pose2(0, 0, 0), Pose2(0, 3, 4), DistanceParams(1.0)) == 5.0
    d = state_distance(Pose2(0, 0, 0), Pose2(math.pi / 2, 0, 0), DistanceParams(2.0))
    assert d == pytest.approx(math.pi, abs=1e-15)


@given(poses)
def test_distance_identity_of_indiscernibles(s):
    assert state_distance(s, s) == 0.0


@given(poses, poses)
def test_distance_symmetry(a, b):
    assert state_distance(a, b) == pytest.approx(state_distance(b, a), abs=1e-12)


def test_distance_triangle_inequality_by_term():
    # translation and wrapped-angle terms each satisfy the triangle inequality
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(300):
        a, b, c = (random_pose(rng) for _ in range(3))
        trans = DistanceParams(0.0)
        rot = DistanceParams(1.0)
        assert state_distance(a, c, trans) <= state_distance(a, b, trans) + state_distance(b, c, trans) + 1e-12
        rot_ac = state_distance(a, c, rot) - state_distance(a, c, trans)
        rot_ab = state_distance(a, b, rot) - state_distance(a, b, trans)
        rot_bc = state_distance(b, c, rot) - state_distance(b, c, trans)
        assert rot_ac <= rot_ab + rot_bc + 1e-12


def test_distance_params_rejects_negative():
    with pytest.raises(ValueError):
        DistanceParams(-0.1)
