"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every Tensor wraps a float64 ndarray and remembers how it was produced; a
single backward() call on a scalar result walks the recorded tape once in
reverse topological order and accumulates exact gradients into every
reachable input. The op set is exactly what the policy network and the PPO
loss need; all arithmetic is plain numpy, so results are deterministic for a
fixed input stream.
"""
from __future__ import annotations

import numpy as np


def _as_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Node on the differentiation tape."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

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
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data + other.data, (self, other))

        def backward(g):
            self._accumulate(_unbroadcast(g, self.data.shape))
            other._accumulate(_unbroadcast(g, other.data.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data * other.data, (self, other))

        def backward(g):
            self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other):
        return Tensor(other) + (-self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return self * other.reciprocal()
        return self * (1.0 / _as_array(other))

    def reciprocal(self):
        out = Tensor(1.0 / self.data, (self,))

        def backward(g):
            self._accumulate(-g / (self.data * self.data))

        out._backward = backward
        return out

    def __pow__(self, exponent: float):
        out = Tensor(self.data**exponent, (self,))

        def backward(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        out._backward = backward
        return out

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), (self,))

        def backward(g):
            self._accumulate(g.reshape(self.data.shape))

        out._backward = backward
        return out

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        out._backward = backward
        return out

    def mean(self):
        return self.sum() * (1.0 / self.data.size)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul supports 2-D operands only")
    out = Tensor(a.data @ b.data, (a, b))

    def backward(g):
        a._accumulate(g @ b.data.T)
        b._accumulate(a.data.T @ g)

    out._backward = backward
    return out


def tanh(t: Tensor) -> Tensor:
    value = np.tanh(t.data)
    out = Tensor(value, (t,))

    def backward(g):
        t._accumulate(g * (1.0 - value * value))

    out._backward = backward
    return out


def exp(t: Tensor) -> Tensor:
    value = np.exp(t.data)
    out = Tensor(value, (t,))

    def backward(g):
        t._accumulate(g * value)

    out._backward = backward
    return out


def log(t: Tensor) -> Tensor:
    out = Tensor(np.log(t.data), (t,))

    def backward(g):
        t._accumulate(g / t.data)

    out._backward = backward
    return out


def clip(t: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with zero gradient outside [lo, hi] (boundary counts as inside)."""
    out = Tensor(np.clip(t.data, lo, hi), (t,))
    mask = (t.data >= lo) & (t.data <= hi)

    def backward(g):
        t._accumulate(g * mask)

    out._backward = backward
    return out


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; on exact ties the gradient routes to `a`."""
    out = Tensor(np.minimum(a.data, b.data), (a, b))
    take_a = a.data <= b.data

    def backward(g):
        a._accumulate(_unbroadcast(g * take_a, a.data.shape))
        b._accumulate(_unbroadcast(g * ~take_a, b.data.shape))

    out._backward = backward
    return out


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on exact ties the gradient routes to `a`."""
    out = Tensor(np.maximum(a.data, b.data), (a, b))
    take_a = a.data >= b.data

    def backward(g):
        a._accumulate(_unbroadcast(g * take_a, a.data.shape))
        b._accumulate(_unbroadcast(g * ~take_a, b.data.shape))

    out._backward = backward
    return out


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

    out._backward = backward
    return out


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
