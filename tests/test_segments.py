import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gawm.segments import (
    ActionIncrement,
    ActionSegment,
    DirichletParams,
    MIN_CONCENTRATION,
    ZERO_INCREMENT,
    make_compatibility_segment,
    make_identity_segment,
    make_inverse_segment,
    sample_dirichlet_weights,
)

component = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)
increments = st.builds(ActionIncrement, dx=component, dy=component, dtheta=component)
segments = st.lists(increments, min_size=1, max_size=6).map(ActionSegment)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _total(seg):
    """Componentwise sum of a segment's rows, row by row from 0.0."""
    total = np.zeros(3)
    for row in seg.array:
        total += row
    return total


def test_increment_rejects_non_finite_and_large_rotation():
    with pytest.raises(ValueError):
        ActionIncrement(float("nan"), 0, 0)
    with pytest.raises(ValueError):
        ActionIncrement(0, 0, 3.5)


def test_identity_segment():
    seg = make_identity_segment(3)
    assert list(seg) == [ZERO_INCREMENT] * 3
    assert np.all(_total(seg) == 0.0)
    assert list(make_identity_segment(1)) == [ZERO_INCREMENT]


def test_identity_segment_rejects_zero_length():
    with pytest.raises(ValueError):
        make_identity_segment(0)


def test_inverse_segment_single():
    seg = make_inverse_segment(ActionSegment([ActionIncrement(1, 0, 0)]))
    assert seg.array.tolist() == [[1, 0, 0], [-1, 0, 0]]


@given(increments, increments)
def test_inverse_segment_pair(a1, a2):
    seg = make_inverse_segment(ActionSegment([a1, a2]))
    assert list(seg) == [a1, a2, -a2, -a1]


@given(segments)
def test_inverse_segment_cancels(u):
    # telescoping cancellation; sequential float summation leaves at most
    # rounding residue, and is exactly zero for well-scaled increments
    assert np.all(np.abs(_total(make_inverse_segment(u))) <= 1e-12)


def test_inverse_segment_cancels_exactly_for_well_scaled_inputs():
    u = ActionSegment([ActionIncrement(1.0, -0.25, 0.5), ActionIncrement(0.125, 2.0, -0.75)])
    assert np.all(_total(make_inverse_segment(u)) == 0.0)


def test_inverse_segment_rejects_empty():
    with pytest.raises(ValueError):
        make_inverse_segment(ActionSegment([]))


def test_dirichlet_length_one_is_exact():
    assert sample_dirichlet_weights(1, DirichletParams(0.3), _rng(9)).tolist() == [1.0]


def test_dirichlet_simplex_constraint():
    w = sample_dirichlet_weights(4, DirichletParams(5.0), _rng(123))
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-12


def test_dirichlet_mean_matches_monte_carlo():
    # symmetric concentration: each component's mean is 1/l
    rng = _rng(5)
    p = DirichletParams(1000.0)
    samples = np.array([sample_dirichlet_weights(3, p, rng) for _ in range(10_000)])
    assert np.all(np.abs(samples.mean(axis=0) - 1.0 / 3.0) < 0.01)


def test_dirichlet_rejects_bad_concentration():
    with pytest.raises(ValueError):
        DirichletParams(0.0)
    with pytest.raises(ValueError):
        DirichletParams(-1.0)


@pytest.mark.parametrize("concentration", [1e-3, 1e-2, 0.0199])
def test_dirichlet_rejects_a_concentration_whose_variates_underflow(concentration):
    with pytest.raises(ValueError, match=f"^concentration must be >= 0.02, .* got {concentration}$"):
        DirichletParams(concentration)


def test_dirichlet_weights_at_the_floor_are_finite():
    # at 1e-3 a quarter of these two-weight draws were NaN
    rng, p = _rng(17), DirichletParams(MIN_CONCENTRATION)
    samples = np.array([sample_dirichlet_weights(2, p, rng) for _ in range(5_000)])
    assert np.isfinite(samples).all()
    assert np.all(samples.sum(axis=1) > 0.999)


def test_compatibility_length_one_is_exact():
    u = ActionSegment([ActionIncrement(0.3, -0.1, 0.2)])
    u_b = make_compatibility_segment(u, DirichletParams(1.0), _rng(3))
    assert list(u_b) == list(u)


def test_compatibility_uniform_weights_redistribute_evenly():
    u = ActionSegment([ActionIncrement(0.4, 0.0, 0.0), ActionIncrement(0.0, 0.2, 0.1)])

    class _Uniform:
        def gamma(self, a, b, size):
            return np.ones(size)

    u_b = make_compatibility_segment(u, DirichletParams(1.0), _Uniform())
    total = _total(u)
    for a in u_b:
        assert a.as_array() == pytest.approx(total / 2, abs=1e-15)


@settings(max_examples=200)
@given(segments, st.integers(min_value=0, max_value=2**32 - 1))
def test_compatibility_preserves_cumulative_sum(u, seed):
    u_b = make_compatibility_segment(u, DirichletParams(1.0), _rng(seed))
    assert len(u_b) == len(u)
    assert _total(u_b) == pytest.approx(_total(u), abs=1e-12)


def test_compatibility_rejects_empty():
    with pytest.raises(ValueError):
        make_compatibility_segment(ActionSegment([]), DirichletParams(1.0), _rng(0))


def test_segment_json_round_trip():
    u = ActionSegment([ActionIncrement(0.1, -0.2, 0.3), ActionIncrement(0, 0, 0)])
    assert ActionSegment(json.loads(json.dumps(u.array.tolist()))) == u


def test_segment_slicing():
    u = ActionSegment([ActionIncrement(i * 0.1, 0, 0) for i in range(5)])
    assert isinstance(u[1:3], ActionSegment)
    assert len(u[1:3]) == 2
    assert u[2] == ActionIncrement(0.2, 0, 0)


def test_segment_holds_one_read_only_array():
    rows = np.array([[0.1, -0.2, 0.3], [0.0, 0.0, 0.0], [0.4, 0.1, -0.5]])
    u = ActionSegment(rows)
    assert u.array.shape == (3, 3) and u.array.dtype == np.float64
    rows[0, 0] = 9.0  # the segment holds a copy
    assert u.array[0, 0] == 0.1
    with pytest.raises(ValueError):
        u.array[0, 0] = 1.0
    assert ActionSegment(list(u)) == u  # increments in, same rows out
    assert ActionSegment([]).array.shape == (0, 3)


def test_segment_slices_are_views():
    u = ActionSegment(np.arange(15.0).reshape(5, 3) * 0.1)
    part = u[1:4]
    assert np.shares_memory(part.array, u.array)
    assert part.array.tolist() == u.array[1:4].tolist()
    assert not part.array.flags.writeable


@pytest.mark.parametrize("row", ([math.nan, 0.0, 0.0], [0.0, math.inf, 0.0],
                                 [0.0, 0.0, 3.5], [0.0, 0.0, -math.inf], [0.0, 0.0, math.nan]))
def test_segment_rejects_rows_as_increment_does(row):
    with pytest.raises(ValueError) as per_increment:
        ActionIncrement(*row)
    with pytest.raises(ValueError) as got:
        ActionSegment(np.array([[0.1, 0.0, 0.0], row, [0.0, 0.0, 9.0]]))
    assert str(got.value) == str(per_increment.value)


@pytest.mark.parametrize("shape", ((3,), (2, 4), (2, 2, 3)))
def test_segment_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match="an \\(L, 3\\) array"):
        ActionSegment(np.zeros(shape))


def test_make_functions_take_arrays():
    rows = np.array([[0.2, 0.1, 0.3], [0.1, -0.1, -0.2]])
    u = ActionSegment(rows)
    assert make_inverse_segment(rows) == make_inverse_segment(u)
    params = DirichletParams(0.5)
    assert make_compatibility_segment(rows, params, _rng(4)) == \
        make_compatibility_segment(u, params, _rng(4))


def test_compatibility_total_is_summed_row_by_row_from_zero():
    class _Uniform:
        def gamma(self, a, b, size):
            return np.ones(size)

    rng = np.random.Generator(np.random.PCG64(9))
    rows = rng.normal(size=(8, 3)) * 10.0 ** rng.integers(-6, 6, size=(8, 3))
    rows[:, 2] = rng.uniform(-0.3, 0.3, size=8)
    total = [0.0, 0.0, 0.0]
    for row in rows.tolist():
        total = [t + v for t, v in zip(total, row)]
    # numpy's pairwise sum of a contiguous column rounds differently
    assert any(np.sum(rows[:, c].copy()) != total[c] for c in range(3))
    u_b = make_compatibility_segment(ActionSegment(rows), DirichletParams(1.0), _Uniform())
    assert u_b.array.tolist() == [[0.125 * t for t in total]] * 8
    # starting from 0.0, a lone -0.0 sums to +0.0
    u_b = make_compatibility_segment(ActionSegment([[-0.0, 0.1, 0.0]]), DirichletParams(1.0), _rng(0))
    assert math.copysign(1.0, u_b.array[0, 0]) == 1.0
