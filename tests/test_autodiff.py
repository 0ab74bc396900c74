"""Reverse-mode tape: every op's gradient against central finite differences.

Each case pairs the tape op with an independent numpy twin; the tape output
is projected onto a fixed random direction so non-uniform upstream gradients
reach every element.
"""

import numpy as np
import pytest

from planarwbc import autodiff as ad
from planarwbc.autodiff import Tensor


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        hi = x.copy()
        lo = x.copy()
        hi[idx] += eps
        lo[idx] -= eps
        g[idx] = (f(hi) - f(lo)) / (2.0 * eps)
        it.iternext()
    return g


def check_gradients(tensor_fn, numpy_fn, arrays, atol=1e-6):
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = tensor_fn(*leaves)
    proj = np.random.default_rng(0).standard_normal(out.data.shape)
    loss = (out * Tensor(proj)).sum()
    loss.backward()
    assert np.allclose(out.data, numpy_fn(*arrays))
    for i, leaf in enumerate(leaves):
        def scalar(x, i=i):
            args = [a.copy() for a in arrays]
            args[i] = x
            return float((numpy_fn(*args) * proj).sum())

        fd = numeric_grad(scalar, arrays[i])
        assert leaf.grad is not None
        assert np.allclose(leaf.grad, fd, atol=atol, rtol=1e-5), (
            f"input {i}: max err {np.abs(leaf.grad - fd).max()}"
        )


def rand(*shape, lo=-1.0, hi=1.0, seed=3):
    rng = np.random.default_rng(seed + sum(shape))
    return rng.uniform(lo, hi, shape)


OPS = [
    ("add_broadcast", lambda a, b: a + b, lambda a, b: a + b,
     [rand(3, 4), rand(4)]),
    ("add_scalar", lambda a: a + 2.5, lambda a: a + 2.5, [rand(5)]),
    ("mul_broadcast", lambda a, b: a * b, lambda a, b: a * b,
     [rand(3, 4), rand(3, 1)]),
    ("neg", lambda a: -a, lambda a: -a, [rand(4)]),
    ("sub", lambda a, b: a - b, lambda a, b: a - b, [rand(2, 3), rand(2, 3)]),
    ("pow", lambda a: a**1.7, lambda a: a**1.7, [rand(5, lo=0.3, hi=2.0)]),
    ("reshape", lambda a: a.reshape(2, 6), lambda a: a.reshape(2, 6), [rand(3, 4)]),
    ("sum_axis", lambda a: a.sum(axis=0), lambda a: a.sum(axis=0), [rand(3, 4)]),
    ("sum_keepdims", lambda a: a.sum(axis=1, keepdims=True),
     lambda a: a.sum(axis=1, keepdims=True), [rand(3, 4)]),
    ("sum_all", lambda a: a.sum(), lambda a: a.sum(), [rand(3, 4)]),
    ("mean", lambda a: a.mean(), lambda a: a.mean(), [rand(7)]),
    ("dense_tanh", lambda x, w, b: ad.dense(x, w, b, True),
     lambda x, w, b: np.tanh(x @ w + b), [rand(3, 4, lo=-2.0, hi=2.0), rand(4, 2), rand(2)]),
    ("dense_linear", lambda x, w, b: ad.dense(x, w, b, False),
     lambda x, w, b: x @ w + b, [rand(3, 4), rand(4, 2), rand(2)]),
    ("dense_one_column", lambda x, w, b: ad.dense(x, w, b, False),
     lambda x, w, b: x @ w + b, [rand(5, 3), rand(3, 1), rand(1)]),
    ("exp", ad.exp, np.exp, [rand(3, 3)]),
    ("log", ad.log, np.log, [rand(5, lo=0.2, hi=3.0)]),
    ("clip", lambda a: ad.clip(a, -0.5, 0.5), lambda a: np.clip(a, -0.5, 0.5),
     [np.array([[-0.9, -0.3, 0.1], [0.4, 0.8, -0.05]])]),
    ("minimum", ad.minimum, np.minimum, [rand(3, 4, seed=5), rand(3, 4, seed=9)]),
    ("maximum", ad.maximum, np.maximum, [rand(3, 4, seed=5), rand(3, 4, seed=9)]),
    ("concat_rows", lambda a, b: ad.concat([a, b], axis=0),
     lambda a, b: np.concatenate([a, b], axis=0), [rand(2, 3), rand(4, 3, seed=8)]),
    ("concat_cols", lambda a, b: ad.concat([a, b], axis=1),
     lambda a, b: np.concatenate([a, b], axis=1), [rand(2, 3), rand(2, 2)]),
    ("columns", lambda a: ad.columns(a, 1, 3, np.float64), lambda a: a[:, 1:3],
     [rand(3, 4)]),
    ("logsumexp", lambda a: ad.logsumexp(a, axis=1),
     lambda a: np.max(a, 1) + np.log(np.exp(a - np.max(a, 1, keepdims=True)).sum(1)),
     [rand(3, 5, lo=-3.0, hi=3.0)]),
    ("logsumexp_keepdims", lambda a: ad.logsumexp(a, axis=0, keepdims=True),
     lambda a: np.max(a, 0, keepdims=True)
     + np.log(np.exp(a - np.max(a, 0, keepdims=True)).sum(0, keepdims=True)),
     [rand(4, 3, lo=-3.0, hi=3.0)]),
    ("log_softmax", lambda a: ad.log_softmax(a, axis=1),
     lambda a: a - (np.max(a, 1, keepdims=True)
                    + np.log(np.exp(a - np.max(a, 1, keepdims=True)).sum(1, keepdims=True))),
     [rand(3, 6, lo=-2.0, hi=2.0)]),
]


@pytest.mark.parametrize("name,tensor_fn,numpy_fn,arrays", OPS, ids=[o[0] for o in OPS])
def test_op_gradient_matches_finite_differences(name, tensor_fn, numpy_fn, arrays):
    check_gradients(tensor_fn, numpy_fn, arrays)


def test_min_max_ties_route_to_first_argument():
    data = np.array([1.0, -2.0, 0.5])
    for op in (ad.minimum, ad.maximum):
        a, b = Tensor(data.copy(), requires_grad=True), Tensor(data.copy(), requires_grad=True)
        op(a, b).sum().backward()
        assert np.array_equal(a.grad, np.ones(3))
        assert np.array_equal(b.grad, np.zeros(3))


def test_clip_gradient_is_interior_mask():
    x = Tensor(np.array([-2.0, -0.2, 0.0, 0.3, 2.0]), requires_grad=True)
    ad.clip(x, -0.5, 0.5).sum().backward()
    assert np.array_equal(x.grad, [0.0, 1.0, 1.0, 1.0, 0.0])


def test_backward_requires_scalar():
    with pytest.raises(ValueError, match="scalar"):
        Tensor(np.zeros(3)).backward()


def test_reused_leaf_accumulates_both_paths():
    data = rand(6)
    x = Tensor(data.copy(), requires_grad=True)
    (x * x + x).sum().backward()
    assert np.allclose(x.grad, 2.0 * data + 1.0, atol=1e-12)


def test_diamond_graph():
    data = rand(4)
    x = Tensor(data.copy(), requires_grad=True)
    z = x + x
    (z * z).sum().backward()
    assert np.allclose(x.grad, 8.0 * data, atol=1e-12)


def test_shared_subexpression_visited_once():
    data, w, b = rand(4, 3, lo=-0.8, hi=0.8), rand(3, 2), rand(2)
    x = Tensor(data.copy(), requires_grad=True)
    t = ad.dense(x, Tensor(w), Tensor(b), True)
    (t * t).sum().backward()
    z = np.tanh(data @ w + b)
    assert np.allclose(x.grad, (2.0 * z * (1.0 - z**2)) @ w.T, atol=1e-12)


def test_unused_leaf_keeps_none_grad():
    x, y = Tensor(rand(3), requires_grad=True), Tensor(rand(3), requires_grad=True)
    (x * 2.0).sum().backward()
    assert y.grad is None


def test_deep_chain_backward_is_iterative():
    # 3000 stacked ops would overflow a recursive traversal.
    x = Tensor(np.array([1.0]), requires_grad=True)
    t = x
    for _ in range(3000):
        t = t * 0.999
    t.sum().backward()
    assert x.grad[0] == pytest.approx(0.999**3000, rel=1e-12)


def test_logsumexp_stable_at_extreme_inputs():
    x = Tensor(np.array([[800.0, 0.0, -800.0]]), requires_grad=True)
    out = ad.logsumexp(x, axis=1)
    assert out.data[0] == pytest.approx(800.0, abs=1e-12)
    out.sum().backward()
    assert np.all(np.isfinite(x.grad))
    assert x.grad[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_log_softmax_rows_normalize():
    x = Tensor(rand(4, 7, lo=-5.0, hi=5.0), requires_grad=True)
    out = ad.log_softmax(x, axis=1)
    assert np.allclose(np.exp(out.data).sum(axis=1), 1.0, atol=1e-12)
    # Gradient of summed log-probs: 1 - n * softmax per row.
    out.sum().backward()
    soft = np.exp(out.data)
    assert np.allclose(x.grad, 1.0 - out.data.shape[1] * soft, atol=1e-10)


def test_constant_operand_gets_no_gradient():
    x = Tensor(rand(3, 4), requires_grad=True)
    c = Tensor(rand(3, 4, seed=7))
    w, b = Tensor(rand(4, 2), requires_grad=True), Tensor(rand(2))
    shifted = c * 2.0 - 1.0
    assert not shifted.requires_grad and shifted._parents == ()
    prod = x * c
    assert prod.requires_grad and prod._parents == (x,)
    (ad.dense(c, w, b, True).sum() + (prod + shifted).sum()).backward()
    assert c.grad is None and b.grad is None and shifted.grad is None
    assert np.array_equal(x.grad, c.data)
    assert w.grad is not None


@pytest.mark.parametrize("shared_first", [True, False])
def test_parents_fed_one_gradient_keep_their_own_buffers(shared_first):
    # a + b hands one g to both parents; the further gradients each of them
    # then receives must not land in the other's .grad.
    x = Tensor(rand(5), requires_grad=True)
    a, b = x * 2.0, x * 3.0
    p, q, r = (Tensor(rand(5, seed=s)) for s in (11, 12, 13))
    shared = ((a + b) * p).sum()
    rest = (a * q).sum() + (b * r).sum() + a.sum()
    (shared + rest if shared_first else rest + shared).backward()
    assert a.grad is not b.grad
    assert np.allclose(a.grad, p.data + q.data + 1.0, atol=1e-15)
    assert np.allclose(b.grad, p.data + r.data, atol=1e-15)
    assert np.allclose(x.grad, 2.0 * a.grad + 3.0 * b.grad, atol=1e-14)


@pytest.mark.parametrize("tanh", [True, False])
@pytest.mark.parametrize("n,k,m", [(1, 1, 1), (5, 3, 1), (7, 4, 6), (256, 64, 1), (64, 256, 7)])
def test_dense_is_bitwise_the_composed_numpy_expressions(n, k, m, tanh):
    rng = np.random.default_rng(n + k + m)
    xd, wd, bd, g = (rng.standard_normal(shape) for shape in ((n, k), (k, m), (m,), (n, m)))
    x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (xd, wd, bd))
    out = ad.dense(x, w, b, tanh)
    (out * Tensor(g)).sum().backward()
    z = np.tanh(xd @ wd + bd) if tanh else xd @ wd + bd
    gz = g * (1.0 - z * z) if tanh else g
    assert np.array_equal(out.data, z)
    assert np.array_equal(w.grad, xd.T @ gz)
    assert np.array_equal(b.grad, gz.sum(axis=0))
    assert np.array_equal(x.grad, gz @ wd.T)


@pytest.mark.parametrize("through_columns", [True, False])
def test_float32_layer_keeps_its_dtype_under_a_float64_loss(through_columns):
    # A float32 layer feeding a float64 loss, through columns (whose gradient
    # comes back in float32) or straight (dense casts the float64 gradient).
    rng = np.random.default_rng(21)
    xd, wd, bd = (rng.standard_normal(s).astype(np.float32) for s in ((5, 3), (3, 4), (4,)))
    x, w, b = (Tensor(a, requires_grad=True) for a in (xd, wd, bd))
    out = ad.dense(x, w, b, True)
    assert out.data.dtype == np.float32
    proj = np.zeros((5, 4))
    proj[:, 1:3] = rng.standard_normal((5, 2))
    if through_columns:
        wide = ad.columns(out, 1, 3, np.float64)
        assert wide.data.dtype == np.float64
        assert np.array_equal(wide.data, out.data[:, 1:3])
        (wide * Tensor(proj[:, 1:3])).sum().backward()
    else:
        (out * Tensor(proj)).sum().backward()
    gz = proj.astype(np.float32) * (1.0 - out.data * out.data)
    for leaf, expected in ((x, gz @ wd.T), (w, xd.T @ gz), (b, gz.sum(axis=0))):
        assert leaf.grad.dtype == np.float32
        assert np.array_equal(leaf.grad, expected)
