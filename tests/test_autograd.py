import numpy as np
import pytest

from gawm import autograd as ag

from oracles import central_difference


def test_add_sub_scale_grads():
    a = ag.Tensor(np.array([1.0, 2.0]))
    b = ag.Tensor(np.array([3.0, -1.0]))
    loss = ag.sumsq(ag.scale(ag.sub(ag.add(a, b), b), 2.0))
    ag.backward(loss)
    # loss = sum((2a)^2) -> d/da = 8a
    assert np.allclose(a.grad, 8.0 * a.value)
    assert np.allclose(b.grad, 0.0)


def test_sumsq_quadratic_gradient():
    z = ag.Tensor(np.array([0.5, -2.0, 1.0]))
    const = ag.constant(np.array([1.0, 1.0, 1.0]))
    loss = ag.sumsq(ag.sub(z, const))
    ag.backward(loss)
    assert np.allclose(z.grad, 2.0 * (z.value - const.value))


def _mlp_weights(rng, d, k, h):
    return tuple(ag.Tensor(rng.normal(size=shape))
                 for shape in ((h, d + k), (h,), (d, h), (d,)))


def _check_residual_mlp_grads(z0, extra, rng):
    d, k, h = z0.shape[0], extra.shape[0], 5
    w0 = [w.value for w in _mlp_weights(rng, d, k, h)]
    target = rng.normal(size=z0.shape)
    sizes = [z0.size] + [w.size for w in w0]
    vec = np.concatenate([z0.ravel()] + [w.ravel() for w in w0])

    def unpack(v):
        parts = np.split(v, np.cumsum(sizes)[:-1])
        return [p.reshape(a.shape) for p, a in zip(parts, [z0] + w0)]

    def f(v):
        z, *ws = (ag.Tensor(a) for a in unpack(v))
        return float(ag.sumsq(ag.sub(ag.residual_mlp(z, extra, ws), ag.constant(target))).value)

    z, *ws = (ag.Tensor(a) for a in unpack(vec))
    out = ag.residual_mlp(z, extra, ws)
    # one node whose parents are z and the four weights
    assert out.parents == (z, *ws)
    w1, b1, w2, b2 = w0
    x = np.concatenate([z0, extra], axis=0)
    bias1 = b1 if z0.ndim == 1 else b1[:, None]
    bias2 = b2 if z0.ndim == 1 else b2[:, None]
    assert np.array_equal(out.value, z0 + ((w2 @ np.tanh(w1 @ x + bias1)) + bias2))

    ag.backward(ag.sumsq(ag.sub(out, ag.constant(target))))
    grads = np.concatenate([t.grad.ravel() for t in (z, *ws)])
    for i in range(vec.size):
        fd = central_difference(f, vec, i)
        assert abs(fd - grads[i]) <= 1e-6 * max(1.0, abs(fd)), i


def test_residual_mlp_vector_finite_difference():
    rng = np.random.Generator(np.random.PCG64(0))
    _check_residual_mlp_grads(rng.normal(size=4), rng.normal(size=3), rng)


def test_residual_mlp_column_batch_finite_difference():
    rng = np.random.Generator(np.random.PCG64(1))
    _check_residual_mlp_grads(rng.normal(size=(4, 6)), rng.normal(size=(3, 6)), rng)


def test_residual_mlp_batch_grads_sum_the_per_column_grads():
    # bias gradients reduce over columns; weight gradients add up per column
    rng = np.random.Generator(np.random.PCG64(2))
    z0, extra = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
    weights = _mlp_weights(rng, 4, 3, 5)
    ag.backward(ag.sumsq(ag.residual_mlp(ag.constant(z0), extra, weights)))
    batch_grads = [w.grad.copy() for w in weights]
    per_column = [np.zeros_like(w.value) for w in weights]
    for j in range(3):
        z = ag.Tensor(z0[:, j])
        ag.backward(ag.sumsq(ag.residual_mlp(z, extra[:, j], weights)))
        for acc, w in zip(per_column, weights):
            acc += w.grad
    for g, acc in zip(batch_grads, per_column):
        assert np.allclose(g, acc, rtol=1e-12, atol=1e-12)


def test_residual_mlp_pre_activation_overflow_rejected():
    # tanh saturates to a finite output, but its input overflowed
    d, k, h = 2, 3, 2
    w1 = ag.Tensor(np.full((h, d + k), 1e308))
    weights = (w1, ag.Tensor(np.zeros(h)), ag.Tensor(np.full((d, h), 0.5)), ag.Tensor(np.zeros(d)))
    with np.errstate(over="ignore"):
        out = ag.residual_mlp(ag.Tensor(np.ones(d)), np.ones(k), weights)
    assert np.all(np.isfinite(out.value)) and not np.all(np.isfinite(out.pre))
    with pytest.raises(ag.NonFiniteGraphError):
        ag.backward(ag.sumsq(out))


def test_shared_subgraph_accumulates():
    x = ag.Tensor(np.array(3.0))
    y = ag.add(x, x)
    loss = ag.sumsq(y)
    ag.backward(loss)
    # loss = (2x)^2 -> 8x
    assert np.allclose(x.grad, 24.0)


def test_detach_blocks_gradient():
    x = ag.Tensor(np.array([1.0, 2.0]))
    h = ag.scale(x, 3.0)
    loss = ag.sumsq(h.detach())
    ag.backward(loss)
    assert x.grad is None
    assert np.allclose(ag.grad_or_zeros(x), 0.0)


def test_backward_requires_scalar():
    x = ag.Tensor(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ag.backward(ag.add(x, x))


def test_non_finite_graph_rejected():
    x = ag.Tensor(np.array([1.0, np.inf]))
    loss = ag.sumsq(x)
    with pytest.raises(ag.NonFiniteGraphError):
        ag.backward(loss)


def test_repeated_backward_on_fresh_graphs_is_stable():
    x = ag.Tensor(np.array([1.0, -1.0]))
    for _ in range(3):
        loss = ag.sumsq(x)
        ag.backward(loss)
        assert np.allclose(x.grad, 2.0 * x.value)
