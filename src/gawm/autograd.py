"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough ops for a small residual MLP rolled out over action
segments and squared-distance losses on its endpoints: one fused node
per residual-MLP step (a vector or a batch of columns), subtraction,
squared norms, and scalar combination. Graphs are built eagerly;
``backward`` walks the tape in reverse topological order, calls each
node's vector-Jacobian product once, and accumulates the results into
its parents (backpropagation through time for an unrolled rollout).

Training computes the same gradients in closed form (``gawm.training``);
the tape is the reference the tests compare them against.
"""

from __future__ import annotations

import numpy as np


class NonFiniteGraphError(ValueError):
    """A recorded computation contains NaN or infinite intermediates."""


class Tensor:
    """A graph node: its value, its parents, and ``vjp(g)``, which maps the
    gradient of the node to a tuple of contributions aligned with
    ``parents``. ``pre`` holds pre-activations that ``backward`` also checks
    for finiteness (a saturated tanh hides an overflow in its input)."""

    __slots__ = ("value", "grad", "parents", "vjp", "pre")

    def __init__(self, value, parents=(), vjp=None, pre=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents
        self.vjp = vjp
        self.pre = pre
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    def detach(self) -> "Tensor":
        """A new leaf with the same value; gradient flow stops here."""
        return Tensor(self.value.copy())


def constant(value) -> Tensor:
    return Tensor(value)


def add(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(a.value + b.value, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(a.value - b.value, (a, b), lambda g: (g, -g))


def scale(a: Tensor, c: float) -> Tensor:
    return Tensor(a.value * c, (a,), lambda g: (g * c,))


def sumsq(a: Tensor) -> Tensor:
    """Sum of squared entries, as a scalar tensor."""
    return Tensor(np.sum(a.value * a.value), (a,), lambda g: (2.0 * g * a.value,))


def residual_mlp(z: Tensor, extra: np.ndarray, weights) -> Tensor:
    """One residual step ``z + w2 @ tanh(w1 @ [z; extra] + b1) + b2``.

    ``z`` is a ``(d,)`` vector with a ``(k,)`` constant ``extra``, or a
    ``(d, B)`` batch of columns with a ``(k, B)`` ``extra``. ``weights`` is
    ``(w1, b1, w2, b2)`` as tensors; the node's parents are ``z`` followed
    by the four weights. The backward pass reuses the cached input,
    pre-activation and hidden activation.
    """
    w1, b1, w2, b2 = weights
    zv, w1v, w2v = z.value, w1.value, w2.value
    batch = zv.ndim == 2
    b1v, b2v = (b1.value[:, None], b2.value[:, None]) if batch else (b1.value, b2.value)
    d = zv.shape[0]
    x = np.concatenate([zv, extra], axis=0)
    pre = w1v @ x + b1v
    h = np.tanh(pre)
    # z is added last, to (w2 @ h) + b2: reassociating the sum moves the
    # loss curves and checkpoints in their last bits
    out = zv + ((w2v @ h) + b2v)

    def vjp(g):
        g_pre = (w2v.T @ g) * (1.0 - h * h)
        g_z = g + (w1v.T @ g_pre)[:d]
        if batch:
            return g_z, g_pre @ x.T, g_pre.sum(axis=1), g @ h.T, g.sum(axis=1)
        return g_z, g_pre[:, None] * x, g_pre, g[:, None] * h, g

    return Tensor(out, (z, w1, b1, w2, b2), vjp, pre)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(node) into ``grad`` for every node in the graph.

    The loss must be scalar. Raises NonFiniteGraphError if any recorded
    value or pre-activation is NaN or infinite.
    """
    if loss.value.shape != ():
        raise ValueError(f"backward expects a scalar loss, got shape {loss.value.shape}")
    order = _topo_order(loss)
    for node in order:
        if not np.isfinite(node.value).all() or (
            node.pre is not None and not np.isfinite(node.pre).all()
        ):
            raise NonFiniteGraphError("non-finite intermediate value in recorded graph")
        node.grad = None
    loss.grad = np.asarray(1.0)
    for node in reversed(order):
        if node.grad is None or node.vjp is None:
            continue
        for parent, contrib in zip(node.parents, node.vjp(node.grad)):
            if parent.grad is None:
                parent.grad = np.array(contrib, dtype=np.float64, copy=True)
            else:
                parent.grad += contrib


def grad_or_zeros(t: Tensor) -> np.ndarray:
    """The accumulated gradient, or zeros when no path reached the node."""
    if t.grad is None:
        return np.zeros_like(t.value)
    return t.grad
