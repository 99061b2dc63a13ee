"""Dense double-precision primitives with hand-derived gradients.

Sequences are stored frames-as-rows: a length-T utterance with d features
is a (T, d) float64 array in row-major order. Every backward function
returns plain gradient arrays, and a Parameter's grad buffer collects them
additively, because shared weights collect contributions from many layers
and time steps. The one exception is the first contribution after
`zero_grad`, which a weight product may write straight into the zeroed
buffer (`Parameter.grad_to_overwrite`): the same values, bar the sign of an
exact zero.

Gradients through relu are masked by multiplication, so a NaN or infinite
incoming gradient stays non-finite at an inactive unit instead of being
zeroed there (see `relu_backward`).

The public functions check their operands. `relu`, `relu_backward` and
`diag_scale` are a check followed by one private body (`_relu`,
`_relu_backward`, `_diag_scale`), and the model's passes call the bodies:
`forward`'s input check and the corpus check have fixed every shape they
see. `affine` and `affine_backward` keep their checks on every call, so
each GEMM stays a call of a public function that a tracer can wrap.
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
    "xent_terms",
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
    `zero_grad`; the first contribution after `zero_grad` may instead be
    written into the buffer that `grad_to_overwrite` hands out. A caller
    that writes into `grad` directly calls `zero_grad` before the next
    backward pass, since `grad_to_overwrite` takes the buffer for zero
    until then.
    """

    _grad_is_zero = True  # grad holds the zeros it was made or cleared with

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
        self._grad_is_zero = False

    def grad_to_overwrite(self) -> np.ndarray | None:
        """The grad buffer, for a contribution to be written into rather
        than added, when it still holds only the zeros `zero_grad` left;
        else None, and the contribution goes through `accumulate`. Either
        way the buffer counts as written from then on."""
        if not self._grad_is_zero:
            return None
        self._grad_is_zero = False
        return self.grad

    def zero_grad(self) -> None:
        if "grad" in vars(self):  # a buffer never made is zero already
            self.grad[...] = 0.0
        self._grad_is_zero = True

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


def affine_backward(x, w, grad_out, *, grad_w_out=None, input_grad: bool = True):
    """Gradients of `affine` w.r.t. input, weight and bias.

    Returns (grad_x, grad_w, grad_b). grad_w sums over all rows (time
    steps) of the sequence, so one call already aggregates the whole
    utterance. With `grad_w_out`, grad_w is written into that array and
    returned as it; with `input_grad` false, grad_x is not computed and
    comes back as None (the input block's input is data, which nothing
    differentiates).
    """
    x = _as2d(x, "affine input")
    w = _as2d(w, "affine weight")
    g = _as2d(grad_out, "affine output gradient")
    if g.shape != (x.shape[0], w.shape[1]):
        raise DimensionError(
            f"affine_backward: output gradient shape {g.shape} does not match "
            f"forward output shape {(x.shape[0], w.shape[1])}"
        )
    grad_x = g @ w.T if input_grad else None
    grad_w = np.matmul(x.T, g, out=grad_w_out)
    grad_b = g.sum(axis=0)
    return grad_x, grad_w, grad_b


def relu(x, out=None) -> np.ndarray:
    """max(x, 0), into `out` when given (x itself for an in-place relu)."""
    return _relu(np.asarray(x, dtype=np.float64), out)


def _relu(x: np.ndarray, out=None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def relu_backward(x, grad_out) -> np.ndarray:
    """Pass gradient where the pre-activation was strictly positive.

    The subgradient at exactly 0 is taken as 0. The gradient is masked by
    multiplying it with `x > 0`, into a fresh array. For a finite gradient
    that equals `np.where(x > 0, grad_out, 0)`, except that an inactive
    unit keeps the sign of its gradient's zero (g * 0 = -0 for negative g).
    A NaN or infinite gradient stays non-finite (NaN) at an inactive unit
    instead of being zeroed, so a fault upstream is not hidden by a dead
    unit.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(grad_out, dtype=np.float64)
    if x.shape != g.shape:
        raise DimensionError(f"relu_backward: shapes {x.shape} and {g.shape} differ")
    return _relu_backward(x, g)


def _relu_backward(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g * (x > 0.0)


def diag_scale(x, d_vec) -> np.ndarray:
    """Per-column scaling: out[t, j] = x[t, j] * d_vec[j].

    Equivalent to an affine map with a diagonal weight matrix and no bias.
    """
    x = _as2d(x, "diag_scale input")
    d = np.asarray(d_vec, dtype=np.float64).reshape(-1)
    if d.shape[0] != x.shape[1]:
        raise DimensionError(f"diag_scale: vector length {d.shape[0]} != column count {x.shape[1]}")
    return _diag_scale(x, d)


def _diag_scale(x: np.ndarray, d: np.ndarray) -> np.ndarray:
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


def _stacked_labels(labels, lengths, k: int) -> np.ndarray:
    """The label vectors of utterances of `lengths` frames, one after another,
    checked: each vector's shape against its utterance in turn
    (DimensionError), then the range [0, k) once over them all
    (LabelError). An error names the utterance's own frame."""
    ys = [np.asarray(y) for y in labels]
    for y, n in zip(ys, lengths):
        if y.ndim != 1 or y.shape[0] != n:
            raise DimensionError(f"labels shape {y.shape} does not match {n} frames")
    y = ys[0] if len(ys) == 1 else np.concatenate(ys)
    bad = np.nonzero((y < 0) | (y >= k))[0]
    if bad.size:
        i = int(bad[0])
        start = 0
        for n in lengths:  # the frame within the utterance holding row i
            if i < start + n:
                break
            start += n
        raise LabelError(f"label {int(y[i])} out of range [0, {k}) at frame {i - start}")
    return y


def _xent(logits, labels, lengths=None):
    """The loss half of `softmax_xent` over stacked utterances: (per-frame
    losses, shifted logits, log normalisers, row indices, labels). `labels`
    is one label vector, or with `lengths` one per utterance."""
    z = _as2d(logits, "logits")
    t_frames, k = z.shape
    if lengths is None:
        labels, lengths = [labels], [t_frames]
    elif len(labels) != len(lengths) or sum(lengths) != t_frames:
        raise DimensionError(
            f"{len(labels)} label vectors for utterances of {list(lengths)} frames "
            f"do not stack to {t_frames} frames"
        )
    y = _stacked_labels(labels, lengths, k)
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(t_frames)
    return log_norm - shifted[rows, y], shifted, log_norm, rows, y


def softmax_xent(logits, labels):
    """Mean per-frame cross-entropy and its gradient w.r.t. the logits.

    loss = (1/T) * sum_t -log softmax(logits[t])[labels[t]], computed with
    max-subtraction so huge logits cannot overflow. The returned gradient
    is (softmax - onehot) / T.
    """
    terms, shifted, log_norm, rows, y = _xent(logits, labels)
    # the gradient is built in `shifted`, which `_xent` made for this call
    grad = np.exp(np.subtract(shifted, log_norm[:, None], out=shifted), out=shifted)
    grad[rows, y] -= 1.0
    grad /= rows.shape[0]
    return float(np.mean(terms)), grad


def xent_loss(logits, labels) -> float:
    """The loss of `softmax_xent` alone, the same float, without making the
    gradient."""
    return float(np.mean(_xent(logits, labels)[0]))


def xent_terms(logits, labels, lengths) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame cross-entropy terms of utterances stacked in `logits`, and
    their stacked labels. `labels` holds one label vector per utterance, of
    `lengths` frames each. The terms are computed row by row, so
    `float(np.mean(...))` of an utterance's slice is the float `xent_loss`
    gives for it alone."""
    terms, *_, y = _xent(logits, labels, lengths)
    return terms, y


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
