"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every Tensor wraps a float32 or float64 ndarray (other inputs become
float64) and remembers how it was produced; a single backward() call on a
scalar result walks the recorded tape once in reverse topological order and
accumulates exact gradients into every reachable input. The op set is
what the tests' reference needs: the policy network and the PPO loss as
tests/oracles.py composes them, against which the policy's own explicit
backward is checked. All arithmetic is plain numpy with its type
promotion, so results are deterministic for a fixed input stream. A
float32 network feeds a float64 loss through `columns`, which copies into
the wider dtype; `dense` computes its gradient products in its own dtype.

Two rules keep the tape lean:

- requires_grad is fixed when a tensor is built (the rule of PyTorch's
  autograd, Paszke et al. 2017): a leaf has it when built with
  requires_grad=True, an op output when any parent has it. Every other
  tensor is a constant: it records no parents, and no op computes a
  gradient product for it.
- The first gradient that reaches a node is stored as given. That array is
  borrowed: `+` hands one array to both parents, and `sum` hands out a
  read-only broadcast view, so a borrowed array is never written. A second
  gradient allocates old + new, which the node owns and adds any further
  gradients into in place. A stored gradient may thus hold -0.0 where
  0.0 + -0.0 would give 0.0; a leaf built with a zeroed grad buffer adds
  into it, so its gradient is the same sum either way.
"""
from __future__ import annotations

import numpy as np


def _as_array(value) -> np.ndarray:
    array = np.asarray(value)
    return array if array.dtype == np.float32 else array.astype(np.float64, copy=False)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Node on the differentiation tape.

    A leaf is a constant unless built with requires_grad=True; grad, for
    such a leaf, is a zeroed buffer it owns and adds its gradient into. An
    op output records the parents that require grad, and backward(g) sends
    the upstream gradient g to them.
    """

    __slots__ = ("data", "grad", "requires_grad", "_own", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None, requires_grad=False, grad=None):
        self.data = _as_array(data)
        self._parents = tuple(p for p in parents if p.requires_grad)
        self._backward = backward
        self.requires_grad = requires_grad or bool(self._parents)
        self.grad: np.ndarray | None = grad
        self._own = grad

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad
        elif self.grad is self._own:
            self.grad += grad
        else:
            self.grad = self._own = self.grad + grad

    def backward(self) -> None:
        """Accumulate d(self)/d(node) into .grad of every tape ancestor."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar (size-1) tensor")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._parents:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor(self.data + other.data, (self, other), backward)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __pow__(self, exponent: float):
        def backward(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor(self.data**exponent, (self,), backward)

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape):
        def backward(g):
            self._accumulate(g.reshape(self.data.shape))

        return Tensor(self.data.reshape(*shape), (self,), backward)

    def sum(self, axis=None, keepdims=False):
        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self):
        return self.sum() * (1.0 / self.data.size)


def dense(x: Tensor, w: Tensor, b: Tensor, tanh: bool) -> Tensor:
    """One layer: z = x @ w + b for x (N, K), w (K, M), b (M,), then tanh(z).

    The backward casts the upstream gradient to z's dtype once and forms
    g * (1 - z*z) in one scratch array.
    """
    z = x.data @ w.data
    z += b.data
    if tanh:
        np.tanh(z, out=z)

    def backward(g):
        g = g.astype(z.dtype, copy=False)
        gz = g
        if tanh:
            gz = np.multiply(z, z)
            np.subtract(1.0, gz, out=gz)
            np.multiply(g, gz, out=gz)
        if x.requires_grad:
            x._accumulate(gz @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ gz)
        if b.requires_grad:
            b._accumulate(gz.sum(axis=0))

    return Tensor(z, (x, w, b), backward)


def exp(t: Tensor) -> Tensor:
    value = np.exp(t.data)

    def backward(g):
        t._accumulate(g * value)

    return Tensor(value, (t,), backward)


def log(t: Tensor) -> Tensor:
    def backward(g):
        t._accumulate(g / t.data)

    return Tensor(np.log(t.data), (t,), backward)


def clip(t: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with zero gradient outside [lo, hi] (boundary counts as inside)."""
    mask = (t.data >= lo) & (t.data <= hi)

    def backward(g):
        t._accumulate(g * mask)

    return Tensor(np.clip(t.data, lo, hi), (t,), backward)


def _select(a: Tensor, b: Tensor, take_a: np.ndarray, data: np.ndarray) -> Tensor:
    """Elementwise pick of a where take_a, else b; the gradient follows the pick."""
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * take_a, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * ~take_a, b.data.shape))

    return Tensor(data, (a, b), backward)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; on exact ties the gradient routes to `a`."""
    return _select(a, b, a.data <= b.data, np.minimum(a.data, b.data))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on exact ties the gradient routes to `a`."""
    return _select(a, b, a.data >= b.data, np.maximum(a.data, b.data))


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def columns(t: Tensor, start: int, stop: int, dtype) -> Tensor:
    """Columns start:stop of a 2-D tensor, copied into dtype.

    The gradient goes back into zeros of t's shape and dtype.
    """
    def backward(g):
        full = np.zeros_like(t.data)
        full[:, start:stop] = g
        t._accumulate(full)

    return Tensor(t.data[:, start:stop].astype(dtype), (t,), backward)


def logsumexp(t: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp along one axis.

    The max shift is treated as a constant; the resulting gradient is the
    exact softmax either way.
    """
    shift = t.data.max(axis=axis, keepdims=True)
    shifted = exp(t - Tensor(shift))
    total = shifted.sum(axis=axis, keepdims=True)
    out = log(total) + Tensor(shift)
    return out if keepdims else out.reshape(*np.squeeze(out.data, axis=axis).shape)


def log_softmax(t: Tensor, axis: int) -> Tensor:
    return t - logsumexp(t, axis=axis, keepdims=True)
