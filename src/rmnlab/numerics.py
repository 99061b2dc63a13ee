"""Dense double-precision primitives with hand-derived gradients.

Sequences are stored frames-as-rows: a length-T utterance with d features
is a (T, d) float64 array in row-major order. Every backward function
returns plain gradient arrays. A Parameter's grad buffer collects them as
a stack of parts, one call of `Parameter.accumulate`, because shared
weights collect contributions from many layers, time steps and pieces. One
rule holds for every parameter: the first part after `zero_grad` is
written into the buffer and every later one is added to it. A lone weight
product may instead be made straight in the zeroed buffer
(`Parameter.grad_to_overwrite`), which is the same write.

Gradients through relu are masked by multiplication, so a NaN or infinite
incoming gradient stays non-finite at an inactive unit instead of being
zeroed there (see `relu_backward`).

The public functions check their operands. `relu`, `relu_backward`,
`diag_scale` and `softmax_xent` are a check followed by one private body
(`_relu`, `_relu_backward`, `_diag_scale`, `_softmax_xent`), and the
model's passes call the bodies: `forward`'s input check and the corpus
check, labels included, have fixed every shape and label they see.
`affine` and `affine_backward` keep their checks on every call, so each
GEMM stays a call of a public function that a tracer can wrap.

`affine`, `affine_backward` and `softmax_xent` take `pieces`: operands that
stack that many equal row blocks, one after another, as a training step
stacks its equal-shaped pieces. Every product is then one batched matmul
over the (pieces, rows, width) view, which makes each block's product the
GEMM the block makes alone, and each block's gradients stay its own.
"""

from __future__ import annotations

import copy
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
    "GRAD_BOUND",
    "grad_check",
    "grad_check_resolved",
]


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class LabelError(ValueError):
    """A class label lies outside [0, num_classes)."""


class NumericError(ArithmeticError):
    """A value that must be finite is NaN or infinite."""


class _Flat:
    """The values of parameters laid out one after another in one flat
    float64 array, and their gradients and velocities likewise in one flat
    array each, made as zeros on first use. Every `Parameter` lies in one."""

    def __init__(self, size: int):
        self.value = np.empty(size)

    @cached_property
    def grad(self) -> np.ndarray:
        return np.zeros(self.value.size)

    @cached_property
    def velocity(self) -> np.ndarray:
        return np.zeros(self.value.size)


class Parameter:
    """A trainable array bundled with its gradient and momentum buffers.

    Every parameter lies in a `_Flat` at a fixed first entry: `value` is a
    C-contiguous view of the flat values there, and `grad` and `velocity`
    are views of the flat gradients and velocities at the same entries,
    made on first use. `flat` = (flat arrays, first entry) places the
    parameter among others (`model.ModelParams`), `value` being the view at
    that entry; a parameter built alone gets a `_Flat` of its own, holding a
    copy of `value`. Assigning to `value`, `grad` or `velocity` copies into
    the view, which stays the same array, and a shape that differs raises
    DimensionError. A deep copy lies in a deep copy of its `_Flat`, which
    the parameters of one deep-copied `ModelParams` share.

    Gradients arrive as stacks of parts through `accumulate`, and
    `zero_grad` clears them. The first part after `zero_grad` is written,
    not added, whatever the parameter, so a part's -0.0 stays -0.0; a
    contribution may instead be made straight in the buffer that
    `grad_to_overwrite` hands out. A caller that writes into `grad`
    directly calls `zero_grad` before the next backward pass, since both
    take the buffer for zero until then.
    """

    _grad_is_zero = True  # grad holds the zeros it was made or cleared with

    def __init__(self, value, name: str = "", flat: tuple[_Flat, int] | None = None):
        self.name = name
        if flat is None:
            given = np.asarray(value, dtype=np.float64)
            flat = _Flat(given.size), 0
            value = flat[0].value.reshape(given.shape)
            np.copyto(value, given)
        self._flat, self._lo = flat
        self.__dict__["value"] = value  # bound once; an assignment copies into it

    # `value`, `grad` and `velocity` stay plain attributes, one array each
    # for good: a property would cost on every read, and perfbench's tracer
    # keys a weight's stage by `id(p.value)`
    def __setattr__(self, name: str, new) -> None:
        if name not in ("value", "grad", "velocity"):
            self.__dict__[name] = new
            return
        view, new = getattr(self, name), np.asarray(new, dtype=np.float64)
        if new.shape != view.shape:
            raise DimensionError(
                f"parameter {self.name or '<unnamed>'}: {name} of shape {new.shape} "
                f"does not match value shape {view.shape}"
            )
        np.copyto(view, new)

    def __deepcopy__(self, memo) -> Parameter:
        flat = copy.deepcopy(self._flat, memo)
        twin = Parameter(self._view(flat.value), self.name, (flat, self._lo))
        twin._grad_is_zero = self._grad_is_zero
        return twin

    def _view(self, flat: np.ndarray) -> np.ndarray:
        return flat[self._lo : self._lo + self.size].reshape(self.value.shape)

    @cached_property
    def grad(self) -> np.ndarray:
        return self._view(self._flat.grad)

    @cached_property
    def velocity(self) -> np.ndarray:
        return self._view(self._flat.velocity)

    def accumulate(self, parts: np.ndarray) -> None:
        """Collect parts[0], parts[1], ... into grad in that order: a part is
        written into a buffer that still holds only the zeros `zero_grad`
        left, and added to it otherwise."""
        if parts.shape[1:] != self.value.shape:
            raise DimensionError(
                f"parameter {self.name or '<unnamed>'}: gradient parts of shape "
                f"{parts.shape[1:]} do not match value shape {self.value.shape}"
            )
        grad = self.grad
        if self._grad_is_zero and len(parts):
            self._grad_is_zero = False
            # one reduce adds the parts in order from -0.0, and -0.0 + x is x,
            # which writes the first; numpy sums the parts pairwise instead
            # when they lie along its inner loop: 8 or more of a single
            # entry, or a stack that is not C-contiguous
            if parts.flags.c_contiguous and (grad.size > 1 or len(parts) < 8):
                np.add.reduce(parts, axis=0, out=grad, initial=-0.0)
                return
            np.copyto(grad, parts[0])
            parts = parts[1:]
        for part in parts:
            grad += part

    def grad_to_overwrite(self) -> np.ndarray | None:
        """The grad buffer, for a contribution to be written into rather
        than added, when it still holds only the zeros `zero_grad` left, as
        `accumulate` writes a first part; else None, and the contribution
        goes through `accumulate`. Either way the buffer counts as written
        from then on."""
        if not self._grad_is_zero:
            return None
        self._grad_is_zero = False
        return self.grad

    def zero_grad(self) -> None:
        if "grad" in vars(self._flat):  # a flat array never made is zero already
            self.grad[...] = 0.0
        self._grad_is_zero = True

    @property
    def size(self) -> int:
        return self.value.size

    def __repr__(self):
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


def _runs(params) -> list[tuple[list[Parameter], np.ndarray, np.ndarray, np.ndarray]]:
    """The parameters in runs whose values, gradients and velocities lie
    next to each other in flat arrays, each run as (parameters, values,
    gradients, velocities), the arrays flat over the run: consecutive
    parameters at adjacent entries of one `_Flat` form one run."""
    runs = []  # [parameters, flat arrays, first entry, entry past the last]
    for p in params:
        if runs and runs[-1][1] is p._flat and runs[-1][3] == p._lo:
            runs[-1][0].append(p)
            runs[-1][3] += p.size
        else:
            runs.append([[p], p._flat, p._lo, p._lo + p.size])
    return [(group, flat.value[lo:hi], flat.grad[lo:hi], flat.velocity[lo:hi])
            for group, flat, lo, hi in runs]


def _as2d(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"{what} must be 2-D, got shape {x.shape}")
    return x


def affine(x, w, b, *, pieces: int = 1, out=None) -> np.ndarray:
    """Row-wise affine map: out[t] = x[t] @ w + b, into `out` when given.

    `pieces` splits x's rows into that many equal blocks, one after another,
    and multiplies them by w in one batched matmul over the (pieces, rows,
    width) view, so every block's product is the GEMM it would be alone: a
    product over stacked rows need not round each row as its block's own
    product does."""
    x = _as2d(x, "affine input")
    w = _as2d(w, "affine weight")
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"affine: input shape {x.shape} incompatible with weight shape {w.shape}")
    if b.shape[0] != w.shape[1]:
        raise DimensionError(f"affine: bias shape {b.shape} incompatible with weight shape {w.shape}")
    x3 = _pieces(x, pieces, "affine input")
    if out is None:
        out = np.empty((x.shape[0], w.shape[1]))
    np.matmul(x3, w, out=out.reshape(x3.shape[:2] + w.shape[1:]))
    out += b
    return out


def affine_backward(x, w, grad_out, *, pieces: int = 1, grad_w_out=None, grad_x_out=None,
                    input_grad: bool = True):
    """Gradients of `affine` w.r.t. input, weight and bias.

    Returns (grad_x, grad_w, grad_b). x and grad_out stack `pieces` equal
    row blocks as `affine` takes them, and every product is a batched
    matmul over the blocks. grad_w and grad_b come back per block, stacked
    on a first axis of length `pieces`, the parts `Parameter.accumulate`
    takes: block i's sum over its rows (time steps), as a call on block i
    alone would. With `grad_w_out` (of grad_w's shape, or w's for one
    block), grad_w is written into it, and likewise grad_x with
    `grad_x_out`, which may share x's memory (grad_x is made after the
    other two read x); with `input_grad` false, grad_x is not computed and
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
    x3 = _pieces(x, pieces, "affine input")
    g3 = g.reshape(x3.shape[:2] + g.shape[1:])
    out = None if grad_w_out is None else grad_w_out.reshape((len(x3),) + w.shape)
    grad_w = np.matmul(x3.transpose(0, 2, 1), g3, out=out)
    grad_b = g3.sum(axis=1)
    grad_x = None
    if input_grad:  # last, so that grad_x_out may share x's memory
        grad_x = np.empty(x.shape) if grad_x_out is None else grad_x_out
        np.matmul(g3, w.T, out=grad_x.reshape(x3.shape))
    return grad_x, grad_w, grad_b


def _pieces(x: np.ndarray, pieces: int, what: str) -> np.ndarray:
    """x's rows as a (pieces, rows, width) view: equal blocks, one after another."""
    if pieces < 1 or x.shape[0] % pieces:
        raise DimensionError(f"{what} of {x.shape[0]} rows does not split into {pieces} equal pieces")
    return x.reshape(pieces, x.shape[0] // pieces, x.shape[1])


def relu(x, out=None) -> np.ndarray:
    """max(x, 0), into `out` when given (x itself for an in-place relu)."""
    return _relu(np.asarray(x, dtype=np.float64), out)


def _relu(x: np.ndarray, out=None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def relu_backward(x, grad_out, out=None) -> np.ndarray:
    """Pass gradient where the pre-activation was strictly positive.

    The subgradient at exactly 0 is taken as 0. The gradient is masked by
    multiplying it with `x > 0`, into `out` when given, else a fresh array.
    For a finite gradient that equals `np.where(x > 0, grad_out, 0)`,
    except that an inactive unit keeps the sign of its gradient's zero
    (g * 0 = -0 for negative g). A NaN or infinite gradient stays
    non-finite (NaN) at an inactive unit instead of being zeroed, so a
    fault upstream is not hidden by a dead unit.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(grad_out, dtype=np.float64)
    if x.shape != g.shape:
        raise DimensionError(f"relu_backward: shapes {x.shape} and {g.shape} differ")
    return _relu_backward(x, g, out)


def _relu_backward(x: np.ndarray, g: np.ndarray, out=None) -> np.ndarray:
    return np.multiply(g, x > 0.0, out=out)


def diag_scale(x, d_vec, out=None) -> np.ndarray:
    """Per-column scaling: out[..., t, j] = x[..., t, j] * d_vec[j], into
    `out` when given. x holds rows of columns, stacked on any leading axes
    (a (pieces, rows, width) view of equal pieces, say). `d_vec` is a
    vector of x's width, or that vector already tiled over x's rows, an
    operand of x's trailing (rows, width) shape. When x stacks several
    pieces of rows narrower than `_NARROW_ROW`, a vector is tiled so before
    the product (see `_diag_scale`); the products are the same either way.

    Equivalent to an affine map with a diagonal weight matrix and no bias.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise DimensionError(f"diag_scale input must be at least 2-D, got shape {x.shape}")
    d = np.asarray(d_vec, dtype=np.float64)
    if d.shape != x.shape[-2:]:
        d = d.reshape(-1)
        if d.shape[0] != x.shape[-1]:
            raise DimensionError(f"diag_scale: vector length {d.shape[0]} != column count {x.shape[-1]}")
    return _diag_scale(x, d, out)


# Row width below which `_diag_scale` tiles its vector over the rows of a
# piece of several. A product with an operand of a piece's own (rows, width)
# shape runs as one loop over each piece, while a broadcast vector splits it
# into a loop per row: at (5, 96, 32) the tiled product, tile made in the
# call, took 12.7 us against 21.6 us broadcast (2 pieces: 4.9 against 8.2).
# At the paper's memory width the broadcast is the faster: 771 against 975 us
# at (2, 600, 512). A lone piece gains nothing from a tile, which it would
# read once: (1, 96, 32) took 4.4 us tiled against 3.6 us broadcast. Best of
# 5 x 50 or more calls, one thread of a 2-vCPU Haswell VM.
_NARROW_ROW = 128


def _diag_scale(x: np.ndarray, d: np.ndarray, out=None) -> np.ndarray:
    if d.ndim == 1 and x.shape[-1] < _NARROW_ROW and x.size > x.shape[-2] * x.shape[-1]:
        tile = np.empty(x.shape[-2:])
        tile[...] = d
        d = tile
    return np.multiply(x, d, out=out)


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
    """The loss half of `softmax_xent` over stacked utterances, checked:
    (per-frame losses, shifted logits, log normalisers, row indices,
    labels). `labels` is one label vector, or with `lengths` one per
    utterance."""
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
    return _xent_terms(z, y) + (y,)


def _xent_terms(z: np.ndarray, y: np.ndarray):
    """`_xent`'s body, on logits z and one label per row y in [0, k)."""
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(z.shape[0])
    return log_norm - shifted[rows, y], shifted, log_norm, rows


def softmax_xent(logits, labels, pieces: int = 1):
    """Mean per-frame cross-entropy and its gradient w.r.t. the logits.

    loss = (1/T) * sum_t -log softmax(logits[t])[labels[t]], computed with
    max-subtraction so huge logits cannot overflow. The returned gradient
    is (softmax - onehot) / T. With `pieces`, the rows stack that many
    pieces of T rows each: the gradient of each piece is that of its own
    mean loss, (softmax - onehot) / T, and the loss is the mean over every
    row.
    """
    z = _as2d(logits, "logits")
    y = _stacked_labels([labels], [z.shape[0]], z.shape[1])
    _pieces(z, pieces, "logits")
    return _softmax_xent(z, y, pieces)


def _softmax_xent(z: np.ndarray, y: np.ndarray, pieces: int = 1):
    terms, shifted, log_norm, rows = _xent_terms(z, y)
    # the gradient is built in `shifted`, which `_xent_terms` made for this call
    grad = np.exp(np.subtract(shifted, log_norm[:, None], out=shifted), out=shifted)
    grad[rows, y] -= 1.0
    grad /= rows.shape[0] // pieces
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
    for analytic, numeric in _gradient_pairs(f, params, epsilon):
        worst = max(worst, _rel_error(analytic, numeric))
    return worst


GRAD_BOUND = 1e-4  # the worst relative error a finite-difference check passes


def grad_check_resolved(f, params, epsilon: float = 1e-5) -> tuple[float, int]:
    """`grad_check`, but an entry whose analytic and numeric values both lie
    below the loss's finite-difference resolution at GRAD_BOUND,
    spacing(f()) / epsilon / GRAD_BOUND, is counted as unresolved instead
    of compared. A central difference rounds by about spacing(f()) /
    epsilon, so below that resolution its rounding alone can take an
    entry's relative error past GRAD_BOUND. Returns (worst relative error
    over the other entries, number of unresolved entries)."""
    resolution = float(np.spacing(abs(f()))) / epsilon / GRAD_BOUND
    worst, unresolved = 0.0, 0
    for analytic, numeric in _gradient_pairs(f, params, epsilon):
        if max(abs(analytic), abs(numeric)) < resolution:
            unresolved += 1
        else:
            worst = max(worst, _rel_error(analytic, numeric))
    return worst, unresolved


def _rel_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)


def _gradient_pairs(f, params, epsilon: float):
    """(analytic, numeric) for every entry of every parameter, the numeric
    value a central difference of f; a non-finite perturbed loss raises
    NumericError."""
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
            yield float(gflat[i]), (f_plus - f_minus) / (2.0 * epsilon)
