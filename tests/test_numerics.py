"""Primitive-level checks: every backward against finite differences,
plus the loss and the checker itself."""

import re

import numpy as np
import pytest

from rmnlab import numerics as numerics_mod
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
    grad_check_resolved,
    relu,
    relu_backward,
    softmax_xent,
    xent_loss,
    xent_terms,
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
    with pytest.raises(DimensionError, match=re.escape("affine input must be 2-D, got shape (3,)")):
        affine(np.ones(3), np.ones((3, 2)), np.zeros(2))


@pytest.mark.parametrize("call, message", [
    (lambda: relu_backward(np.ones((2, 3)), np.ones((3, 2))),
     "relu_backward: shapes (2, 3) and (3, 2) differ"),
    (lambda: diag_scale_backward(np.ones((2, 3)), np.ones(3), np.ones((2, 2))),
     "diag_scale_backward: shapes (2, 3) and (2, 2) differ"),
    (lambda: diag_scale(np.ones((2, 3)), np.ones(2)),
     "diag_scale: vector length 2 != column count 3"),
    (lambda: affine(np.ones((10, 3)), np.ones((3, 2)), np.zeros(2), pieces=3),
     "affine input of 10 rows does not split into 3 equal pieces"),
    (lambda: diag_scale(np.ones(3), np.ones(3)),
     "diag_scale input must be at least 2-D, got shape (3,)"),
    (lambda: diag_scale_backward(np.ones((2, 3)), np.ones(2), np.ones((2, 3))),
     "diag_scale: vector length 2 != column count 3"),
], ids=["relu_backward", "diag_scale_backward", "diag_scale", "affine_pieces", "diag_scale_1d",
        "diag_scale_backward_vector"])
def test_primitives_name_the_shapes_they_reject(call, message):
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        call()


def test_relu_and_backward():
    x = np.array([[-1.0, 0.0, 2.0]])
    assert np.array_equal(relu(x), [[0.0, 0.0, 2.0]])
    g = relu_backward(x, np.array([[5.0, 5.0, 5.0]]))
    # subgradient at exactly zero is zero
    assert np.array_equal(g, [[0.0, 0.0, 5.0]])


def test_relu_backward_equals_where_for_finite_gradients():
    x = RNG.normal(size=(64, 33))
    x[::5, ::3] = 0.0
    g = RNG.normal(size=x.shape)
    got = relu_backward(x, g)
    # array_equal counts -0.0 equal to 0.0: only the sign of a zero may differ
    assert np.array_equal(got, np.where(x > 0, g, 0.0))
    assert not np.shares_memory(got, g)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_relu_backward_keeps_a_non_finite_gradient_at_an_inactive_unit(bad):
    x = np.array([[-1.0, 0.0, 2.0]])
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN, and numpy warns of it
        g = relu_backward(x, np.array([[bad, bad, 5.0]]))
    assert not np.isfinite(g[0, :2]).any()
    assert g[0, 2] == 5.0


def test_affine_backward_writes_into_the_buffer_and_can_skip_the_input_gradient():
    x, w, g = RNG.normal(size=(9, 4)), RNG.normal(size=(4, 3)), RNG.normal(size=(9, 3))
    gx, gw, gb = affine_backward(x, w, g)
    assert gw.shape == (1, 4, 3) and gb.shape == (1, 3)  # stacked, as one piece
    out = np.full((4, 3), np.nan)
    gx2, gw2, gb2 = affine_backward(x, w, g, grad_w_out=out, input_grad=False)
    assert gx2 is None and gw2.base is out
    assert np.array_equal(gw2, gw) and np.array_equal(out, gw[0]) and np.array_equal(gb2, gb)


def test_parameter_hands_out_its_grad_buffer_only_while_it_is_zero():
    p = Parameter(np.ones((2, 2)), "p")
    buf = p.grad_to_overwrite()
    assert buf is p.grad
    assert p.grad_to_overwrite() is None
    p.zero_grad()
    p.accumulate(np.ones((1, 2, 2)))
    assert p.grad_to_overwrite() is None
    p.zero_grad()
    assert p.grad_to_overwrite() is p.grad


def test_a_parameter_built_alone_lies_in_a_flat_of_its_own():
    given = np.arange(6).reshape(3, 2).T  # not float64, not C-contiguous
    p = Parameter(given, "p")
    assert np.array_equal(p.value, given) and not np.shares_memory(p.value, given)
    flat = p._flat
    for view, whole in ((p.value, flat.value), (p.grad, flat.grad), (p.velocity, flat.velocity)):
        assert view.shape == (2, 3) and view.flags.c_contiguous and whole.shape == (6,)
        assert view.ctypes.data == whole.ctypes.data


def test_diag_scale_equals_diagonal_matmul():
    x = RNG.normal(size=(6, 4))
    d = RNG.normal(size=4)
    assert np.allclose(diag_scale(x, d), x @ np.diag(d), atol=1e-15)


@pytest.mark.parametrize("width", [3, 32, 127, 128, 200])
@pytest.mark.parametrize("pieces", [1, 5])
def test_diag_scale_tiled_and_broadcast_are_the_same_product(width, pieces, monkeypatch):
    # a (pieces, rows, width) view, strided as a tap's source is
    x = RNG.normal(size=(pieces, 20, width))[:, 3:]
    d = RNG.normal(size=width)
    want = (x * d).tobytes()
    for narrow in (0, 10**9):  # never tiled, always tiled
        monkeypatch.setattr(numerics_mod, "_NARROW_ROW", narrow)
        assert diag_scale(x, d).tobytes() == want
    tiled = np.tile(d, (x.shape[1], 1))
    assert diag_scale(x, tiled).tobytes() == want  # an operand of x's trailing shape
    with pytest.raises(DimensionError, match="vector length"):
        diag_scale(x, np.ones(width + 1))
    with pytest.raises(DimensionError, match="vector length"):
        diag_scale(x, np.ones((x.shape[1] + 1, width)))


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


@pytest.mark.parametrize("lengths", [[1], [5, 1], [1, 1, 1], [40, 3, 1], [2, 300, 1]])
def test_xent_terms_give_each_utterance_the_loss_of_xent_loss(lengths):
    # each slice's mean is the float xent_loss gives the slice alone
    logits = RNG.normal(size=(sum(lengths), 11)) * 30.0
    labels = [RNG.integers(0, 11, size=n) for n in lengths]
    terms, stacked = xent_terms(logits, labels, lengths)
    assert np.array_equal(stacked, np.concatenate(labels))
    start = 0
    for n, y in zip(lengths, labels):
        assert float(np.mean(terms[start : start + n])) == xent_loss(logits[start : start + n], y)
        start += n


def test_xent_terms_errors_name_the_utterance_and_its_own_frame():
    logits = np.zeros((9, 3))
    good = [np.zeros(2, dtype=np.int64), np.zeros(4, dtype=np.int64), np.zeros(3, dtype=np.int64)]
    bad = [y.copy() for y in good]
    bad[1][3], bad[2][1] = 3, -1
    with pytest.raises(LabelError, match=r"label 3 out of range \[0, 3\) at frame 3$"):
        xent_terms(logits, bad, [2, 4, 3])
    for labels in ([good[0], None, good[2]], [good[0], good[1][:3], good[2]]):
        with pytest.raises(DimensionError, match="does not match 4 frames"):
            xent_terms(logits, labels, [2, 4, 3])
    for lengths in ([2, 4, 4], [2, 7]):
        with pytest.raises(DimensionError, match="do not stack"):
            xent_terms(logits, good, lengths)


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


def test_grad_check_resolved_counts_what_a_central_difference_cannot_see():
    # a loss of 1e6 + tiny terms: its floats are 1.2e-10 apart, so with
    # epsilon 1e-5 a gradient below 1.2e-5 moves it by less than one step
    p = Parameter(np.array([2.0, 1e-3, 3.0]), "w")
    scale = np.array([1.0, 1e-3, 1.0])

    def loss():
        return 1e6 + float((scale * p.value ** 2).sum())

    p.grad[...] = 2.0 * scale * p.value
    assert grad_check(loss, [p]) > 0.5  # the tiny entry's 2e-6 reads as about 0
    worst, unresolved = grad_check_resolved(loss, [p])
    assert unresolved == 1 and worst < 1e-4
    p.grad[0] += 1.0  # an error the difference can see still counts
    assert grad_check_resolved(loss, [p])[0] > 1e-2


@pytest.mark.parametrize("k, m", [(64, 11), (5, 3), (32, 32), (1024, 40)])
@pytest.mark.parametrize("rows", [1, 7, 17])
def test_batched_products_equal_each_pieces_own_bit_for_bit(k, m, rows):
    # the guard for stacking a training step's pieces: with `pieces`, every
    # GEMM is the one the piece makes alone, whatever the rows before it
    # (a 2-D product over stacked rows need not round a row the same)
    pieces = 3
    x = RNG.normal(size=(pieces * rows, k))
    w, b = RNG.normal(size=(k, m)), RNG.normal(size=m)
    g = RNG.normal(size=(pieces * rows, m))
    out = affine(x, w, b, pieces=pieces)
    gx, gw, gb = affine_backward(x, w, g, pieces=pieces)
    assert gw.shape == (pieces, k, m) and gb.shape == (pieces, m)
    for i in range(pieces):
        piece = slice(i * rows, (i + 1) * rows)
        alone = affine(x[piece].copy(), w, b)
        ax, aw, ab = affine_backward(x[piece].copy(), w, g[piece].copy())
        assert out[piece].tobytes() == alone.tobytes()
        assert gx[piece].tobytes() == ax.tobytes()
        assert gw[i].tobytes() == aw.tobytes() and gb[i].tobytes() == ab.tobytes()


def test_accumulate_writes_the_first_part_after_zero_grad_and_adds_the_rest_in_order():
    # parts of 1e16 cancel, so only adding them one at a time, in order,
    # gives these bytes: the reverse order loses a different small part
    parts = np.array([[0.3, 1.7, -2.1], [1e16, -3e16, 7e15], [-1e16, 3e16, -7e15],
                      [0.9, 0.4, 1.3]])
    in_order, reversed_order = parts[0].copy(), parts[-1].copy()
    for part in parts[1:]:
        in_order += part
    for part in parts[-2::-1]:
        reversed_order += part
    assert in_order.tobytes() != reversed_order.tobytes()
    p = Parameter(np.zeros(3), "p")
    p.accumulate(parts[:1])
    p.accumulate(parts[1:])
    assert p.grad.tobytes() == in_order.tobytes()
    p.zero_grad()
    assert np.array_equal(p.grad, np.zeros(3))
    # the first part after zero_grad is written, so its -0.0 stays -0.0
    # (0.0 + -0.0 is 0.0); a later part is added
    p.accumulate(np.array([[-0.0, 2.0, -0.0], [0.0, -2.0, -0.0]]))
    assert np.signbit(p.grad).tolist() == [False, False, True]
    p.zero_grad()
    p.accumulate(np.empty((0, 3)))  # no parts: the next part is still the first
    p.accumulate(np.array([[-0.0, 1.0, -0.0]]))
    assert np.signbit(p.grad).tolist() == [True, False, True]
    with pytest.raises(DimensionError, match=re.escape("gradient parts of shape (4,)")):
        p.accumulate(np.ones((2, 4)))
    with pytest.raises(DimensionError):
        p.accumulate(np.ones(3))


@pytest.mark.parametrize("count", [1, 2, 7, 8, 9, 20])
@pytest.mark.parametrize("shape", [(1,), (1, 1), (2,), (3, 4)])
@pytest.mark.parametrize("contiguous", [True, False])
def test_accumulate_equals_adds_one_part_at_a_time(count, shape, contiguous):
    # numpy sums a single entry's 8 or more parts, or parts that lie along
    # its inner loop, pairwise; accumulate must still add them in order
    rng = np.random.default_rng(count)
    parts = rng.normal(size=(count,) + shape) * 10.0 ** rng.integers(-16, 17, (count,) + shape)
    parts[rng.random(parts.shape) < 0.3] = -0.0
    parts[0].reshape(-1)[0] = -0.0  # a first part's -0.0 is written
    if count >= 8:  # in order the last entry sums to 1, pairwise to 0
        parts.reshape(count, -1)[:, -1] = [1.0, 1e16, -1e16, 1.0] + [0.0] * (count - 4)
    if not contiguous:  # the parts axis laid out innermost
        parts = np.moveaxis(np.ascontiguousarray(np.moveaxis(parts, 0, -1)), -1, 0)
    want = parts[0].copy()
    for part in parts[1:]:
        want += part
    p = Parameter(np.zeros(shape), "p")
    p.accumulate(parts)
    assert p.grad.tobytes() == want.tobytes()
    more = rng.normal(size=(3,) + shape)
    for part in more:
        want += part
    p.accumulate(more)
    assert p.grad.tobytes() == want.tobytes()
