import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gawm.latent import DynamicsNet, LearnedWorldModel, make_encoder
from gawm.models import ExactModel, rollout
from gawm.se2 import Pose2
from gawm.segments import (
    ActionIncrement,
    DirichletParams,
    MIN_CONCENTRATION,
    check_increments,
    make_compatibility_segment,
    make_inverse_segment,
    sample_dirichlet_weights,
)

component = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)
increments = st.builds(ActionIncrement, dx=component, dy=component, dtheta=component)
segments = st.lists(increments, min_size=1, max_size=6).map(
    lambda incs: np.stack([a.as_array() for a in incs]))


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _sample_trajectory(rows):
    model = LearnedWorldModel(make_encoder(8, 1), DynamicsNet(8, 4))
    return model.sample_trajectory(Pose2(0.0, 0.0, 0.0), rows, None)


# every per-pose entry point that takes an (L, 3) action array checks it
ENTRY_POINTS = {
    "inverse": make_inverse_segment,
    "compatibility": lambda rows: make_compatibility_segment(rows, DirichletParams(1.0), _rng(0)),
    "rollout": lambda rows: rollout(ExactModel(), Pose2(0.0, 0.0, 0.0), rows, 0),
    "sample_trajectory": _sample_trajectory,
}


def _total(seg):
    """Componentwise sum of a segment's rows, row by row from 0.0."""
    total = np.zeros(3)
    for row in seg:
        total += row
    return total


def test_increment_rejects_non_finite_and_large_rotation():
    with pytest.raises(ValueError):
        ActionIncrement(float("nan"), 0, 0)
    with pytest.raises(ValueError):
        ActionIncrement(0, 0, 3.5)


def test_inverse_segment_single():
    seg = make_inverse_segment(np.array([[1.0, 0.0, 0.0]]))
    assert seg.tolist() == [[1, 0, 0], [-1, 0, 0]]


@given(increments, increments)
def test_inverse_segment_pair(a1, a2):
    seg = make_inverse_segment(np.stack([a1.as_array(), a2.as_array()]))
    assert [ActionIncrement(*row) for row in seg.tolist()] == [a1, a2, -a2, -a1]


@given(segments)
def test_inverse_segment_cancels(u):
    # telescoping cancellation; sequential float summation leaves at most
    # rounding residue, and is exactly zero for well-scaled increments
    assert np.all(np.abs(_total(make_inverse_segment(u))) <= 1e-12)


def test_inverse_segment_cancels_exactly_for_well_scaled_inputs():
    u = np.array([[1.0, -0.25, 0.5], [0.125, 2.0, -0.75]])
    assert np.all(_total(make_inverse_segment(u)) == 0.0)


def test_inverse_segment_rejects_empty():
    with pytest.raises(ValueError, match="empty segment"):
        make_inverse_segment(np.zeros((0, 3)))


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
    message = f"concentration must be in [0.02, 1e+100], got {concentration}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DirichletParams(concentration)


def test_dirichlet_weights_at_the_floor_are_finite():
    # at 1e-3 a quarter of these two-weight draws were NaN
    rng, p = _rng(17), DirichletParams(MIN_CONCENTRATION)
    samples = np.array([sample_dirichlet_weights(2, p, rng) for _ in range(5_000)])
    assert np.isfinite(samples).all()
    assert np.all(samples.sum(axis=1) > 0.999)


def test_compatibility_length_one_is_exact():
    u = np.array([[0.3, -0.1, 0.2]])
    u_b = make_compatibility_segment(u, DirichletParams(1.0), _rng(3))
    assert u_b.tolist() == u.tolist()


def test_compatibility_uniform_weights_redistribute_evenly():
    u = np.array([[0.4, 0.0, 0.0], [0.0, 0.2, 0.1]])

    class _Uniform:
        def gamma(self, a, b, size):
            return np.ones(size)

    u_b = make_compatibility_segment(u, DirichletParams(1.0), _Uniform())
    total = _total(u)
    for a in u_b:
        assert a == pytest.approx(total / 2, abs=1e-15)


@settings(max_examples=200)
@given(segments, st.integers(min_value=0, max_value=2**32 - 1))
def test_compatibility_preserves_cumulative_sum(u, seed):
    u_b = make_compatibility_segment(u, DirichletParams(1.0), _rng(seed))
    assert len(u_b) == len(u)
    assert _total(u_b) == pytest.approx(_total(u), abs=1e-12)


def test_compatibility_rejects_empty():
    with pytest.raises(ValueError, match="empty segment"):
        make_compatibility_segment(np.zeros((0, 3)), DirichletParams(1.0), _rng(0))


def test_segment_json_round_trip():
    u = np.array([[0.1, -0.2, 0.3], [0.0, 0.0, 0.0]])
    assert np.array_equal(make_inverse_segment(json.loads(json.dumps(u.tolist()))),
                          make_inverse_segment(u))


def test_segments_come_back_as_read_only_arrays_of_a_copy():
    rows = np.array([[0.1, -0.2, 0.3], [0.0, 0.0, 0.0], [0.4, 0.1, -0.5]])
    for name, entry in ENTRY_POINTS.items():
        out = entry(rows)
        assert out.dtype == np.float64 and out.shape[-1] == 3, name
        assert not np.shares_memory(out, rows), name
        assert rows.flags.writeable, name  # the caller's array is left as it was
    cycle = make_inverse_segment(rows)
    assert cycle.shape == (6, 3) and not cycle.flags.writeable
    u_b = make_compatibility_segment(rows, DirichletParams(1.0), _rng(0))
    assert u_b.shape == (3, 3) and not u_b.flags.writeable
    assert rollout(ExactModel(), Pose2(0.5, 1.0, 2.0), [], 0).tolist() == [[0.5, 1.0, 2.0]]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("row", ([math.nan, 0.0, 0.0], [0.0, math.inf, 0.0],
                                 [0.0, 0.0, 3.5], [0.0, 0.0, -math.inf], [0.0, 0.0, math.nan]))
def test_segment_rejects_rows_as_increment_does(row, entry):
    with pytest.raises(ValueError) as per_increment:
        ActionIncrement(*row)
    with pytest.raises(ValueError) as got:
        ENTRY_POINTS[entry](np.array([[0.1, 0.0, 0.0], row, [0.0, 0.0, 9.0]]))
    assert str(got.value) == str(per_increment.value)


# a bad component: non-finite in any column, or a turn just beyond pi
BAD_COMPONENTS = st.one_of(
    st.tuples(st.integers(0, 2), st.sampled_from([math.nan, math.inf, -math.inf])),
    st.tuples(st.just(2), st.sampled_from([1.0, -1.0]).flatmap(
        lambda sign: st.floats(math.pi, 4.0, exclude_min=True).map(lambda v: sign * v))),
)


@settings(max_examples=60, deadline=None)
@given(valid=st.lists(st.tuples(component, component,
                                st.floats(-math.pi, math.pi, allow_nan=False)),
                      min_size=1, max_size=12),
       bad=st.lists(st.tuples(st.integers(0, 11), BAD_COMPONENTS), max_size=4))
def test_check_increments_raises_the_first_bad_rows_error_with_its_index(valid, bad):
    rows = np.array(valid)
    for at, (column, value) in bad:
        rows[at % len(rows), column] = value
    first = None
    for i, row in enumerate(rows.tolist()):
        try:
            ActionIncrement(*row)
        except ValueError as e:
            first, want = i, str(e)
            break
    if first is None:
        assert check_increments(rows) is None
        return
    with pytest.raises(ValueError) as got:
        check_increments(rows)
    assert str(got.value) == want
    assert got.value.row == first


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("shape", ((3,), (2, 4), (2, 2, 3), (2, 0), (0, 0)))
def test_segment_rejects_other_shapes(shape, entry):
    with pytest.raises(ValueError, match="^" + re.escape(f"a segment is an (L, 3) array, got shape {shape}")):
        ENTRY_POINTS[entry](np.zeros(shape))


def test_make_functions_take_arrays_and_lists():
    rows = np.array([[0.2, 0.1, 0.3], [0.1, -0.1, -0.2]])
    assert np.array_equal(make_inverse_segment(rows), make_inverse_segment(rows.tolist()))
    params = DirichletParams(0.5)
    assert np.array_equal(make_compatibility_segment(rows, params, _rng(4)),
                          make_compatibility_segment(rows.tolist(), params, _rng(4)))


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
    u_b = make_compatibility_segment(rows, DirichletParams(1.0), _Uniform())
    assert u_b.tolist() == [[0.125 * t for t in total]] * 8
    # starting from 0.0, a lone -0.0 sums to +0.0
    u_b = make_compatibility_segment([[-0.0, 0.1, 0.0]], DirichletParams(1.0), _rng(0))
    assert math.copysign(1.0, u_b[0, 0]) == 1.0
