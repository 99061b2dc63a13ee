"""Dense double-precision primitives with hand-derived gradients.

Sequences are stored frames-as-rows: a length-T utterance with d features
is a (T, d) float64 array in row-major order. Every backward function
returns plain gradient arrays; accumulation into a Parameter's grad buffer
is always additive (+=), never an overwrite, because shared weights collect
contributions from many layers and time steps.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = [
    "DimensionError",
    "LabelError",
    "NumericError",
    "Parameter",
    "affine",
    "affine_backward",
    "relu",
    "relu_backward",
    "diag_scale",
    "diag_scale_backward",
    "softmax_xent",
    "xent_loss",
    "grad_check",
]


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class LabelError(ValueError):
    """A class label lies outside [0, num_classes)."""


class NumericError(ArithmeticError):
    """A value that must be finite is NaN or infinite."""


class Parameter:
    """A trainable array bundled with its gradient and momentum buffers.

    `value`, `grad` and `velocity` always share one shape and are
    C-contiguous. A C-contiguous float64 `value` array is kept as given,
    not copied; any other is copied into one. The `grad` and `velocity`
    buffers are made as zeros on first use, so a model that is only
    evaluated holds its values alone; `trainer.fit` makes them up front.
    Gradients are accumulated with `accumulate` and cleared with
    `zero_grad`.
    """

    def __init__(self, value, name: str = ""):
        self.value = np.asarray(value, dtype=np.float64, order="C")
        self.name = name

    @cached_property
    def grad(self) -> np.ndarray:
        return np.zeros_like(self.value)

    @cached_property
    def velocity(self) -> np.ndarray:
        return np.zeros_like(self.value)

    def accumulate(self, g) -> None:
        if g.shape != self.value.shape:
            raise DimensionError(
                f"parameter {self.name or '<unnamed>'}: gradient shape {g.shape} "
                f"does not match value shape {self.value.shape}"
            )
        self.grad += g

    def zero_grad(self) -> None:
        if "grad" in vars(self):  # a buffer never made is zero already
            self.grad[...] = 0.0

    @property
    def size(self) -> int:
        return self.value.size

    def __repr__(self):
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


def _as2d(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"{what} must be 2-D, got shape {x.shape}")
    return x


def affine(x, w, b) -> np.ndarray:
    """Row-wise affine map: out[t] = x[t] @ w + b."""
    x = _as2d(x, "affine input")
    w = _as2d(w, "affine weight")
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"affine: input shape {x.shape} incompatible with weight shape {w.shape}")
    if b.shape[0] != w.shape[1]:
        raise DimensionError(f"affine: bias shape {b.shape} incompatible with weight shape {w.shape}")
    out = x @ w
    out += b
    return out


def affine_backward(x, w, grad_out):
    """Gradients of `affine` w.r.t. input, weight and bias.

    Returns (grad_x, grad_w, grad_b). grad_w sums over all rows (time
    steps) of the sequence, so one call already aggregates the whole
    utterance.
    """
    x = _as2d(x, "affine input")
    w = _as2d(w, "affine weight")
    g = _as2d(grad_out, "affine output gradient")
    if g.shape != (x.shape[0], w.shape[1]):
        raise DimensionError(
            f"affine_backward: output gradient shape {g.shape} does not match "
            f"forward output shape {(x.shape[0], w.shape[1])}"
        )
    grad_x = g @ w.T
    grad_w = x.T @ g
    grad_b = g.sum(axis=0)
    return grad_x, grad_w, grad_b


def relu(x) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_backward(x, grad_out) -> np.ndarray:
    """Pass gradient where the pre-activation was strictly positive.

    The subgradient at exactly 0 is taken as 0.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(grad_out, dtype=np.float64)
    if x.shape != g.shape:
        raise DimensionError(f"relu_backward: shapes {x.shape} and {g.shape} differ")
    return np.where(x > 0.0, g, 0.0)


def diag_scale(x, d_vec) -> np.ndarray:
    """Per-column scaling: out[t, j] = x[t, j] * d_vec[j].

    Equivalent to an affine map with a diagonal weight matrix and no bias.
    """
    x = _as2d(x, "diag_scale input")
    d = np.asarray(d_vec, dtype=np.float64).reshape(-1)
    if d.shape[0] != x.shape[1]:
        raise DimensionError(f"diag_scale: vector length {d.shape[0]} != column count {x.shape[1]}")
    return x * d


def diag_scale_backward(x, d_vec, grad_out):
    """Returns (grad_x, grad_d) with grad_d[j] = sum_t x[t, j] * grad_out[t, j]."""
    x = _as2d(x, "diag_scale input")
    d = np.asarray(d_vec, dtype=np.float64).reshape(-1)
    g = _as2d(grad_out, "diag_scale output gradient")
    if g.shape != x.shape:
        raise DimensionError(f"diag_scale_backward: shapes {x.shape} and {g.shape} differ")
    if d.shape[0] != x.shape[1]:
        raise DimensionError(f"diag_scale: vector length {d.shape[0]} != column count {x.shape[1]}")
    return g * d, (x * g).sum(axis=0)


def _xent(logits, labels):
    """The loss half of `softmax_xent`: (loss, shifted logits, log
    normalisers, row indices, labels)."""
    z = _as2d(logits, "logits")
    y = np.asarray(labels)
    t_frames, k = z.shape
    if y.ndim != 1 or y.shape[0] != t_frames:
        raise DimensionError(f"labels shape {y.shape} does not match {t_frames} frames")
    bad = np.nonzero((y < 0) | (y >= k))[0]
    if bad.size:
        raise LabelError(f"label {int(y[bad[0]])} out of range [0, {k}) at frame {int(bad[0])}")
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(t_frames)
    loss = float(np.mean(log_norm - shifted[rows, y]))
    return loss, shifted, log_norm, rows, y


def softmax_xent(logits, labels):
    """Mean per-frame cross-entropy and its gradient w.r.t. the logits.

    loss = (1/T) * sum_t -log softmax(logits[t])[labels[t]], computed with
    max-subtraction so huge logits cannot overflow. The returned gradient
    is (softmax - onehot) / T.
    """
    loss, shifted, log_norm, rows, y = _xent(logits, labels)
    # the gradient is built in `shifted`, which `_xent` made for this call
    grad = np.exp(np.subtract(shifted, log_norm[:, None], out=shifted), out=shifted)
    grad[rows, y] -= 1.0
    grad /= rows.shape[0]
    return loss, grad


def xent_loss(logits, labels) -> float:
    """The loss of `softmax_xent` alone, the same float, without making the
    gradient."""
    return _xent(logits, labels)[0]


def grad_check(f, params, epsilon: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    `f` is a zero-argument callable returning the scalar loss for the
    current parameter values; the analytic gradients must already sit in
    each Parameter's grad buffer. Every entry of every parameter is
    perturbed by +/- epsilon and the worst relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-12) is returned.
    """
    worst = 0.0
    for p in params:
        flat = p.value.reshape(-1)
        gflat = p.grad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + epsilon
            f_plus = f()
            flat[i] = saved - epsilon
            f_minus = f()
            flat[i] = saved
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(
                    f"non-finite loss while perturbing {p.name or '<unnamed>'}[{i}]"
                )
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            analytic = gflat[i]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
            worst = max(worst, rel)
    return worst
