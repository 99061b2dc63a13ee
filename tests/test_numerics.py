"""Primitive-level checks: every backward against finite differences,
plus the loss and the checker itself."""

import numpy as np
import pytest

from rmnlab.numerics import (
    DimensionError,
    LabelError,
    NumericError,
    Parameter,
    affine,
    affine_backward,
    diag_scale,
    diag_scale_backward,
    grad_check,
    relu,
    relu_backward,
    softmax_xent,
)

RNG = np.random.default_rng(42)


def numeric_grad(f, arr, eps=1e-6):
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        fp = f()
        flat[i] = saved - eps
        fm = f()
        flat[i] = saved
        gflat[i] = (fp - fm) / (2 * eps)
    return g


def test_affine_values():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    w = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
    b = np.array([0.5, -0.5, 0.0])
    out = affine(x, w, b)
    assert np.array_equal(out, np.array([[1.5, 1.5, 0.0], [3.5, 3.5, 2.0]]))


def test_affine_backward_matches_finite_differences():
    x = RNG.normal(size=(5, 4))
    w = RNG.normal(size=(4, 3))
    b = RNG.normal(size=3)
    g_out = RNG.normal(size=(5, 3))

    def loss():
        return float((affine(x, w, b) * g_out).sum())

    gx, gw, gb = affine_backward(x, w, g_out)
    assert np.allclose(gx, numeric_grad(loss, x), atol=1e-8)
    assert np.allclose(gw, numeric_grad(loss, w), atol=1e-8)
    assert np.allclose(gb, numeric_grad(loss, b), atol=1e-8)


def test_affine_shape_errors():
    with pytest.raises(DimensionError):
        affine(np.ones((2, 3)), np.ones((4, 2)), np.zeros(2))
    with pytest.raises(DimensionError):
        affine(np.ones((2, 3)), np.ones((3, 2)), np.zeros(5))
    with pytest.raises(DimensionError):
        affine_backward(np.ones((2, 3)), np.ones((3, 4)), np.ones((2, 5)))


def test_relu_and_backward():
    x = np.array([[-1.0, 0.0, 2.0]])
    assert np.array_equal(relu(x), [[0.0, 0.0, 2.0]])
    g = relu_backward(x, np.array([[5.0, 5.0, 5.0]]))
    # subgradient at exactly zero is zero
    assert np.array_equal(g, [[0.0, 0.0, 5.0]])


def test_diag_scale_equals_diagonal_matmul():
    x = RNG.normal(size=(6, 4))
    d = RNG.normal(size=4)
    assert np.allclose(diag_scale(x, d), x @ np.diag(d), atol=1e-15)


def test_diag_scale_backward_matches_finite_differences():
    x = RNG.normal(size=(6, 4))
    d = RNG.normal(size=4)
    g_out = RNG.normal(size=(6, 4))

    def loss():
        return float((diag_scale(x, d) * g_out).sum())

    gx, gd = diag_scale_backward(x, d, g_out)
    assert np.allclose(gx, numeric_grad(loss, x), atol=1e-8)
    assert np.allclose(gd, numeric_grad(loss, d), atol=1e-8)


def test_softmax_xent_uniform_logits():
    logits = np.zeros((3, 4))
    loss, grad = softmax_xent(logits, np.array([0, 1, 2]))
    assert loss == pytest.approx(np.log(4.0), rel=1e-12)
    # each row: (1/4 - onehot) / T
    expect = (np.full((3, 4), 0.25) - np.eye(3, 4)) / 3.0
    assert np.allclose(grad, expect, atol=1e-15)


def test_softmax_xent_matches_finite_differences():
    logits = RNG.normal(size=(7, 5))
    labels = RNG.integers(0, 5, size=7)

    def loss():
        return softmax_xent(logits, labels)[0]

    _, grad = softmax_xent(logits, labels)
    assert np.allclose(grad, numeric_grad(loss, logits), atol=1e-8)


def test_softmax_xent_huge_logits_stay_finite():
    logits = np.array([[1000.0, -1000.0], [5000.0, 4999.0]])
    loss, grad = softmax_xent(logits, np.array([0, 1]))
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad))


# the inputs are logits, or an affine's input rows, of the paper's 4006-class
# classifier: one row, 256 rows, and logits scaled up to 1e300
@pytest.mark.parametrize("rows, classes, scale", [
    (1, 4006, 1.0), (3, 5, 1e300), (256, 4006, 1.0), (256, 4006, 1e300),
])
def test_softmax_xent_equals_its_literal_formula(rows, classes, scale):
    logits = RNG.normal(size=(rows, classes)) * scale
    labels = RNG.integers(0, classes, size=rows)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    at = np.arange(rows)
    want_loss = float(np.mean(log_norm - shifted[at, labels]))
    want_grad = np.exp(shifted - log_norm[:, None]).copy()
    want_grad[at, labels] -= 1.0
    want_grad /= rows

    loss, grad = softmax_xent(logits, labels)
    assert loss == want_loss
    assert np.array_equal(grad, want_grad)


@pytest.mark.parametrize("rows, d_in, d_out, scale", [
    (1, 1024, 4006, 1.0), (256, 1024, 4006, 1.0), (256, 40, 7, 1e300),
])
def test_affine_equals_its_literal_formula(rows, d_in, d_out, scale):
    x = RNG.normal(size=(rows, d_in))
    w = RNG.normal(size=(d_in, d_out))
    b = RNG.normal(size=d_out) * scale
    assert np.array_equal(affine(x, w, b), x @ w + b)


def test_softmax_xent_label_out_of_range():
    with pytest.raises(LabelError):
        softmax_xent(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(LabelError):
        softmax_xent(np.zeros((2, 3)), np.array([-1, 0]))


def test_parameter_accumulate_and_zero():
    p = Parameter(np.zeros((2, 2)), "p")
    p.accumulate(np.ones((2, 2)))
    p.accumulate(np.ones((2, 2)))
    assert np.array_equal(p.grad, np.full((2, 2), 2.0))
    p.zero_grad()
    assert np.array_equal(p.grad, np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        p.accumulate(np.ones(3))


def test_grad_check_accepts_correct_gradient():
    p = Parameter(RNG.normal(size=(3, 2)), "w")
    target = RNG.normal(size=(3, 2))

    def loss():
        return float(((p.value - target) ** 2).sum())

    p.grad[...] = 2.0 * (p.value - target)
    assert grad_check(loss, [p]) < 1e-9


def test_grad_check_rejects_wrong_gradient():
    p = Parameter(RNG.normal(size=(3, 2)), "w")
    target = RNG.normal(size=(3, 2))

    def loss():
        return float(((p.value - target) ** 2).sum())

    p.grad[...] = 2.0 * (p.value - target)
    p.grad[0, 0] += 1.0
    assert grad_check(loss, [p]) > 1e-2


def test_grad_check_raises_on_nonfinite_loss():
    p = Parameter(np.array([1.0]), "w")

    def loss():
        return float("nan")

    with pytest.raises(NumericError):
        grad_check(loss, [p])
