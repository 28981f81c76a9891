"""The metrics respect the group: a global change of frame leaves them unchanged.

GAC and GAR are built from SE(2)-invariant distances, so for a model
whose step commutes with a global change of frame, moving every start by
one rigid motion ``g`` must leave every per-config probe mean and every
GAR value where it was, up to rounding. A value is compared relative to
its size, or absolutely where it is at rounding level. A deterministic
model's GAR is exactly 0 in both frames. A step-only model that reads
absolute position is not equivariant, and the check catches it.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from gawm.config import ProbeSuiteConfig
from gawm.data import ActionDistribution, sample_sequences
from gawm.metrics import evaluate_gac, evaluate_gar
from gawm.models import ExactModel, PerturbedModel, ViolationConfig, is_deterministic
from gawm.se2 import DistanceParams, Pose2, pose_array, se2_compose
from gawm.segments import ActionIncrement

REL_TOL = 1e-9
ABS_TOL = 1e-12  # rounding level for poses of a few units
DIST = DistanceParams(0.7)
GRID = ProbeSuiteConfig().probe_grid()
TURNING = ActionDistribution(mean_dx=0.065, sigma_dx=0.05, sigma_dy=0.04, sigma_dtheta=0.3)

MODELS = {
    "exact": ExactModel,
    "drift": lambda: PerturbedModel(ViolationConfig(drift_bias=ActionIncrement(0.01, 0.0, 0.005))),
    "sat": lambda: PerturbedModel(ViolationConfig(saturation_scale=0.05)),
    "asym": lambda: PerturbedModel(ViolationConfig(asym_gain=(1.2, 0.8))),
    "noise": lambda: PerturbedModel(ViolationConfig(noise_sigma=0.02)),
}


class AbsolutePosition:
    """A third-party step-only model whose forward motion grows with its
    absolute x, so it does not commute with a change of frame."""

    deterministic = True

    def step(self, state, action, rng):
        return se2_compose(state, Pose2(action.dtheta, action.dx * (1.0 + 0.2 * math.tanh(state.x)),
                                        action.dy))


def _scores(model, starts, actions, seed):
    """Every per-config probe mean, then every GAR value, and the GAR values alone."""
    gac = evaluate_gac(model, starts, actions, GRID, DIST, seed, 0.3)
    gar = evaluate_gar(model, starts, actions, [4, 12], 3, DIST, seed)
    gar_values = [v for e in gar.entries for v in (e.aligned_mean, e.aligned_std,
                                                    e.nonaligned_mean, e.nonaligned_std)]
    return [r.mean for r in gac.per_config] + [gac.e_gac] + gar_values, gar_values


def _moved(starts, g):
    """Every start moved by the rigid motion ``g``, on the left."""
    return pose_array([se2_compose(g, Pose2(*start)) for start in starts.tolist()])


def _frame_change_gaps(model, g, seed):
    """(value, value in the moved frame) of every score, and the GAR values of both."""
    starts, actions, _ = sample_sequences(3, 12, TURNING, seed)
    here, gar_here = _scores(model, starts, actions, seed)
    there, gar_there = _scores(model, _moved(starts, g), actions, seed)
    return list(zip(here, there)), gar_here + gar_there


def _unchanged(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) or max(abs(a), abs(b)) <= ABS_TOL


frames = st.builds(
    Pose2,
    theta=st.floats(-math.pi, math.pi, exclude_min=True),
    x=st.floats(-4.0, 4.0),
    y=st.floats(-4.0, 4.0),
)


@pytest.mark.parametrize("name", MODELS)
@settings(max_examples=15, deadline=None)
@given(g=frames, seed=st.integers(0, 2**32 - 1))
def test_scores_are_unchanged_by_a_change_of_frame(name, g, seed):
    model = MODELS[name]()
    pairs, gar = _frame_change_gaps(model, g, seed)
    assert all(_unchanged(a, b) for a, b in pairs), pairs
    if is_deterministic(model):
        assert gar == [0.0] * len(gar)
    else:
        assert min(gar) > ABS_TOL


def test_a_model_that_reads_absolute_position_is_caught():
    model = AbsolutePosition()
    g = Pose2(0.7, 3.0, -2.0)
    pairs, gar = _frame_change_gaps(model, g, 5)
    assert not all(_unchanged(a, b) for a, b in pairs)
    assert gar == [0.0] * len(gar)
    # the exact model it departs from passes the same check
    pairs, _ = _frame_change_gaps(MODELS["exact"](), g, 5)
    assert all(_unchanged(a, b) for a, b in pairs)
