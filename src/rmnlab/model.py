"""Residual memory network: architecture, forward/backward, analysis tools.

The network is a deep feed-forward stack over frame sequences. Each memory
layer l applies its own affine map to the previous layer's output and adds
a shared-weight transform of its *own* pre-activation delayed by m_l
frames (plus a mirrored future tap in the bidirectional variant) before
the relu. Delays shrink with depth, m_l = L - l + 1, so the first layer
reaches farthest back and the last layer looks one frame back. Identity
shortcuts bridge every `residual_interval` memory layers.

The backward pass is hand-scheduled for exactly this wiring; the shared
transforms accumulate gradient from every layer and every time step, and
gradient flows through the delayed taps into upstream layers (no
truncation inside an utterance).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import Field, dataclass, field, fields

import numpy as np

from . import data as data_mod
from .numerics import (
    DimensionError,
    Parameter,
    _diag_scale,
    _Flat,
    _relu,
    _relu_backward,
    _softmax_xent,
    affine,
    affine_backward,
    grad_check,
    xent_loss,
)

__all__ = [
    "InputError",
    "ConsistencyError",
    "WindowError",
    "RMNConfig",
    "format_value",
    "parse_value",
    "delay_schedule",
    "ModelParams",
    "ForwardCache",
    "Carry",
    "Model",
    "init_params",
    "randomize_params",
    "model_input",
    "forward",
    "backward",
    "check_gradients",
    "param_count",
    "param_count_lstmp",
    "receptive_field",
    "delay_span",
    "probe_receptive_field",
    "streaming_forward",
    "save_checkpoint",
    "load_checkpoint",
]

DIRECTIONS = ("uni", "bi")
SHARED_FORMS = ("diagonal", "full")


class InputError(ValueError):
    """Unusable input sequence (e.g. zero frames)."""


class ConsistencyError(ValueError):
    """A cache was replayed against parameters it was not built from."""


class WindowError(ValueError):
    """Probe sequence too short for the receptive field under test."""


@dataclass
class RMNConfig:
    """Complete architectural description of an RMN/BRMN instance."""

    input_dim: int
    num_memory_layers: int
    num_classes: int
    wide_dim: int = 1024
    memory_dim: int = 512
    direction: str = "uni"
    shared_weight_form: str = "diagonal"
    residual_interval: int | None = 3
    delay_enabled: bool = True
    splice_left: int = 0
    splice_right: int = 0

    def __post_init__(self):
        for name in ("input_dim", "num_memory_layers", "num_classes", "wide_dim", "memory_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if self.shared_weight_form not in SHARED_FORMS:
            raise ValueError(
                f"shared_weight_form must be one of {SHARED_FORMS}, got {self.shared_weight_form!r}"
            )
        if self.residual_interval is not None and self.residual_interval < 1:
            raise ValueError("residual_interval must be >= 1 or None")
        if self.splice_left < 0 or self.splice_right < 0:
            raise ValueError("splice widths must be >= 0")
        if self.direction == "bi" and not self.delay_enabled:
            raise ValueError("bidirectional models require delay_enabled")

    @property
    def splice_width(self) -> int:
        """Raw frames concatenated into one model input row."""
        return self.splice_left + 1 + self.splice_right


# --- config value codec: one text form for checkpoint headers and experiment
# files. Field types are the annotation strings ("int | None", "bool", ...).

_BOOL_WORDS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
               **dict.fromkeys(("0", "false", "no", "off"), False)}


def format_value(f: Field, value) -> str:
    """Text form of a config field's value: bool as 0/1, None as `none`."""
    if value is None:
        return "none"
    return str(int(value)) if f.type == "bool" else str(value)


def parse_value(f: Field, text: str):
    """Inverse of `format_value`; booleans also accept true/yes/on and
    false/no/off. Raises ValueError on text that is not of the field's type."""
    low = text.strip().lower()
    if low == "none" and f.type.endswith(" | None"):
        return None
    if f.type == "bool":
        if low not in _BOOL_WORDS:
            raise ValueError(f"expected a boolean, got {text!r}")
        return _BOOL_WORDS[low]
    return {"int": int, "float": float, "str": str}[f.type.split(" ")[0]](text)


def delay_schedule(config: RMNConfig) -> list[int]:
    """Per-layer delays m_l = L - l + 1, first memory layer first; empty
    when delays are disabled. Bidirectional models mirror each m_l into a
    lookahead of the same size."""
    if not config.delay_enabled:
        return []
    return list(range(config.num_memory_layers, 0, -1))


class ModelParams:
    """All trainable arrays in their fixed declared order.

    Order (also the checkpoint order): input block, projection, memory
    layers 1..L, shared past transform, shared future transform (bi only),
    first output block, classifier block. Exactly one shared past (and
    future) transform exists regardless of depth.

    The values lie in one flat float64 array, in this order, and each
    Parameter's `value` is a C-contiguous view of its entries. The
    gradients and the velocities get one flat array each in the same
    layout, made as zeros when a parameter's `grad` or `velocity` is first
    used, so a model that is only evaluated holds its values alone. So
    `sgd_step` and `zero_grads` pass over all parameters at once. A
    parameter given a new `value` array, or replaced by a new Parameter,
    keeps buffers of its own; a deep copy holds its own arrays, each
    parameter on its own.

    `rng` draws the training init into the views. With `rng` None the
    values are left unset, for a checkpoint reader to fill.
    """

    def __init__(self, config: RMNConfig, rng: np.random.Generator | None):
        c = config
        shared = (c.memory_dim,) if c.shared_weight_form == "diagonal" else (c.memory_dim,) * 2
        layout = [("input_w", (c.input_dim, c.wide_dim)), ("input_b", (c.wide_dim,)),
                  ("proj_w", (c.wide_dim, c.memory_dim)), ("proj_b", (c.memory_dim,))]
        for l in range(c.num_memory_layers):
            layout += [(f"layer{l + 1}_w", (c.memory_dim,) * 2), (f"layer{l + 1}_b", (c.memory_dim,))]
        layout += [("shared_past", shared)] + [("shared_future", shared)] * (c.direction == "bi")
        layout += [("out1_w", (c.memory_dim, c.wide_dim)), ("out1_b", (c.wide_dim,)),
                   ("out2_w", (c.wide_dim, c.num_classes)), ("out2_b", (c.num_classes,))]
        self._flat = flat = _Flat(sum(math.prod(shape) for _, shape in layout))
        made, lo = {}, 0
        for name, shape in layout:
            value = flat.value[lo : lo + math.prod(shape)].reshape(shape)
            if rng is not None and name.endswith("_w"):  # affine weights, in order
                rng.standard_normal(out=value)  # with the scale below, rng.normal's values
                value *= 0.2 / np.sqrt(shape[0])
            elif rng is not None:
                # biases and shared transforms start at zero: the net first
                # learns a static frame mapping, then grows into the delayed taps
                value[...] = 0.0
            made[name] = Parameter(value, name, (flat, lo))
            lo += value.size
        self.input_w, self.input_b = made["input_w"], made["input_b"]
        self.proj_w, self.proj_b = made["proj_w"], made["proj_b"]
        self.layer_w = [made[f"layer{l + 1}_w"] for l in range(c.num_memory_layers)]
        self.layer_b = [made[f"layer{l + 1}_b"] for l in range(c.num_memory_layers)]
        self.shared_past, self.shared_future = made["shared_past"], made.get("shared_future")
        self.out1_w, self.out1_b = made["out1_w"], made["out1_b"]
        self.out2_w, self.out2_b = made["out2_w"], made["out2_b"]

    def parameters(self) -> list[Parameter]:
        out = [self.input_w, self.input_b, self.proj_w, self.proj_b]
        for w, b in zip(self.layer_w, self.layer_b):
            out.extend([w, b])
        out.append(self.shared_past)
        if self.shared_future is not None:
            out.append(self.shared_future)
        out.extend([self.out1_w, self.out1_b, self.out2_w, self.out2_b])
        return out

    def zero_grads(self) -> None:
        """Clear every gradient: the flat gradient array in one fill, which
        clears its views, then any grad buffer a parameter holds of its own."""
        flat = vars(self._flat).get("grad")  # None until some grad is first used
        if flat is not None:
            flat.fill(0.0)
        for p in self.parameters():
            own = vars(p).get("grad")  # a buffer never made is zero already
            if own is not None and (flat is None or own.base is not flat):
                own[...] = 0.0
            p._grad_is_zero = True


def init_params(config: RMNConfig, seed: int) -> ModelParams:
    """Build parameters: affine weights ~ N(0, (0.2/sqrt(fan_in))^2), biases
    and shared transforms zero, all buffers deterministic for a seed."""
    return ModelParams(config, np.random.default_rng(seed))


def randomize_params(params: ModelParams, seed: int) -> None:
    """Overwrite every parameter with O(1)-scaled random values.

    The training init keeps activations tiny and the shared transforms at
    zero, which starves verification probes of signal: delayed taps carry
    nothing, and pre-activations sit so close to the relu kink that finite
    differences step across it. This fills every buffer with comfortable
    magnitudes; it is a probe tool, not an alternative training init.
    """
    rng = np.random.default_rng(seed)
    for p in params.parameters():
        if p.value.ndim == 2:
            p.value[...] = rng.normal(0.0, 1.0 / np.sqrt(p.value.shape[0]), p.value.shape)
        else:
            p.value[...] = rng.normal(0.0, 0.35, p.value.shape)


@dataclass
class Model:
    """A config paired with its parameters; unit of training and checkpointing."""

    config: RMNConfig
    params: ModelParams


@dataclass
class ForwardCache:
    """What the backward pass reads, and nothing else.

    The memory stack's outputs form one list, outs = [proj_post] +
    layer_out: memory layer l reads outs[l] and writes outs[l + 1]. `x` is
    the whole input; every other array covers only the rows its stage
    computed, given by `spans` (see `forward`): outs[j] covers spans[j],
    `input_post` and `layer_pre[l]` cover spans[l] like the outs[l] they
    feed (l = 0 for the input block), `layer_mask[l]` covers spans[l + 1]
    like outs[l + 1], and `out1_post` and `logits` cover spans[-1], the
    requested rows. `input_post`, `proj_post` and `out1_post` feed the
    weight gradients of the affine after them and serve as their blocks'
    relu masks (relu(p) is positive exactly where p is). `layer_pre` holds
    each layer's own affine output (the tap source), `layer_mask` the bool
    mask z > 0 of its relu input z (pre plus the taps, `_add_taps`; no array
    keeps z), `layer_out` the value after any shortcut, for the outputs a
    shortcut reads and the last one only; the others are None, and
    `output` rebuilds any of them from its layer's pre. So a memory layer
    holds 9 bytes per row and unit, and 8 more where its output is held.
    `wiring` is the wiring the forward worked out and ran (`_wiring`), which
    `backward` and `output` follow.

    With `pieces` = B > 1, x stacks B utterances of equal length, one after
    another, and every other array stacks B pieces of the rows above, each
    piece's rows in the same span. `buffers` are the forward's (see
    `forward`), which `backward` writes into as well.
    """

    x: np.ndarray
    spans: list[tuple[int, int]]
    input_post: np.ndarray
    proj_post: np.ndarray
    layer_pre: list[np.ndarray]
    layer_mask: list[np.ndarray]
    layer_out: list[np.ndarray]
    out1_post: np.ndarray
    logits: np.ndarray
    params_ref: ModelParams = field(repr=False, default=None)
    wiring: list = field(repr=False, default=None)
    pieces: int = 1
    buffers: _Buffers = field(repr=False, default=None)

    def output(self, j: int, rows: tuple[int, int] | None = None) -> np.ndarray:
        """Rows lo..hi-1 of each piece of outs[j], for `rows` = (lo, hi)
        inside spans[j] (default: all of spans[j]), as one 2-D array: the
        held array's rows (`_window`), or an output `layer_out` does not hold
        rebuilt by the forward's memory-layer body (`_layer_body`) from its
        layer's pre and held shortcut source, and so bit for bit. The
        diagonal form rebuilds the rows asked for, each row's product its
        own; the full form rebuilds every row the forward computed, since a
        GEMM may round a row by the rows beside it. A rebuilt output lies in
        the buffer `out`, which with `buffers` the next rebuild overwrites."""
        outs = [self.proj_post] + self.layer_out
        (a, b), pieces = self.spans[j], self.pieces
        lo, hi = (a, b) if rows is None else rows
        if outs[j] is not None:
            return _window(outs[j], pieces, lo - a, hi - a)
        taps, src = self.wiring[j - 1]
        taps = [(s.value, k) for s, k in taps]
        r0, r1 = (lo, hi) if all(s.ndim == 1 for s, _ in taps) else (a, b)
        pre, take = self.layer_pre[j - 1], _take(self.buffers)
        z = take("out", (pieces * (r1 - r0), pre.shape[1]))
        shortcut = None
        if src is not None:
            c = self.spans[src][0]
            shortcut = outs[src].reshape(pieces, -1, pre.shape[1])[:, r0 - c : r1 - c]
        _layer_body(z, pre, pieces, r0 - self.spans[j - 1][0], taps, [], take, shortcut)
        return _window(z, pieces, lo - r0, hi - r0)


class _Buffers:
    """Arrays a training run reuses from step to step (`trainer.fit`): each
    name and dtype views one flat buffer of its own, grown to the largest size
    asked for; the view of a shape is handed out again until the buffer grows."""

    def __init__(self):
        self._flat: dict[tuple[str, type], tuple[np.ndarray, dict[tuple, np.ndarray]]] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialised array of `shape` and `dtype`, which overwrites
        whatever the last array of this name and dtype held."""
        flat, views = self._flat.get((name, dtype), (None, {}))
        view = views.get(shape)
        if view is None:
            size = math.prod(shape)
            if flat is None or flat.size < size:
                flat, views = np.empty(size, dtype), {}
                self._flat[name, dtype] = flat, views
            view = views[shape] = flat[:size].reshape(shape)
        return view


def _take(buffers: _Buffers | None):
    """The `take` of a pass: `buffers.take`, or without buffers a fresh
    array on every call, so a cache stays valid after later calls."""
    if buffers is None:
        return lambda name, shape, dtype=np.float64: np.empty(shape, dtype)
    return buffers.take


def _window(a: np.ndarray, pieces: int, i0: int, i1: int) -> np.ndarray:
    """Rows i0..i1-1 of each of the `pieces` equal row blocks of the 2-D a,
    as one 2-D array: a view where those rows lie together in a (one piece,
    or every row of each), else a copy."""
    return a.reshape(pieces, -1, a.shape[1])[:, i0:i1].reshape(-1, a.shape[1])


def _rows(x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of x, along its second-to-last axis (each piece's
    rows in a (pieces, rows, width) view); an index outside x gives a zero
    row, so a tap that falls outside the utterance contributes nothing. A
    range inside x comes back as a view."""
    n = x.shape[-2]
    if start >= 0 and stop <= n:
        return x[..., start:stop, :]
    out = np.zeros(x.shape[:-2] + (stop - start, x.shape[-1]), dtype=x.dtype)
    lo, hi = max(start, 0), min(stop, n)
    if lo < hi:
        out[..., lo - start : hi - start, :] = x[..., lo:hi, :]
    return out


def _cut_edges(product: np.ndarray, d0: int, k: int, starts: list[int]) -> None:
    """Zero the rows of a tap product, whose first row is row d0 of a stacked
    group, that read row t - k of another utterance than row t's. The
    group's second and later utterances begin at the rows in `starts`;
    k != 0."""
    for s in starts:
        # the rows whose source lies across the edge at s: the k rows from s
        # for a past tap, the -k rows before s for a future one
        product[..., max(0, min(s, s + k) - d0) : max(0, max(s, s + k) - d0), :] = 0.0


def _wiring(
    params: ModelParams, config: RMNConfig
) -> list[tuple[list[tuple[Parameter, int]], int | None]]:
    """Per memory layer l, which reads outs[l] and writes outs[l + 1] (outs
    = [projection output] + memory layer outputs): its delayed taps and its
    shortcut source.

    The taps are (shared transform, k) pairs; each adds shared(pre[t - k])
    to the layer's relu input. The past tap has k = m_l, the bidirectional
    future tap k = -m_l, and a layer has no taps when delays are disabled.
    The shortcut source j adds outs[j] to the layer's relu output: every
    `residual_interval`-th layer bridges back to the start of its block,
    and the other layers (all of them without residuals) have None."""
    sides = [(params.shared_past, 1)]
    if config.direction == "bi":
        sides.append((params.shared_future, -1))
    delays = delay_schedule(config)
    n = config.residual_interval
    return [
        ([(shared, sign * delays[l]) for shared, sign in sides] if delays else [],
         l + 1 - n if n is not None and (l + 1) % n == 0 else None)
        for l in range(config.num_memory_layers)
    ]


def _tap_source(pre: np.ndarray, k: int, shared: np.ndarray, r0: int, r1: int):
    """(i0, i1, tap): the sources pre[t - k] of rows r0 + i0 .. r0 + i1 - 1
    of pre's numbering for the tap (shared, k), or None when no source row
    of rows [r0, r1) lies in pre. pre is a (pieces, rows, width) view, and
    so is the tap. A vector `shared` (diagonal form) gets the rows whose
    source lies in pre, as a view; a matrix (full form) every row,
    zero-padded."""
    d0, d1 = max(r0, k), min(r1, pre.shape[1] + k)
    if d0 >= d1:
        return None
    if shared.ndim == 1:
        return d0 - r0, d1 - r0, pre[:, d0 - k : d1 - k]
    return 0, r1 - r0, _rows(pre, r0 - k, r1 - k)


def _add_taps(z: np.ndarray, pre: np.ndarray, z0: int, taps, starts: list[int], take) -> None:
    """Add the delayed taps into z in place. z and pre are (pieces, rows,
    width) views of one piece's rows each; z holds rows z0.. of pre's
    numbering, and row t of each piece gains shared(pre[t - k]) of that
    piece for each tap (shared, k) whose source row lies in pre and, across
    the edges in `starts`, in row t's utterance (`_cut_edges`). A vector
    `shared` scales columns, a matrix multiplies each piece's rows.

    The tap rule of every pass: products first, each into `take`'s array
    `tap<i>`, then adds in tap order; the sources come from `_tap_source`,
    views for the diagonal form and a zero-padded tap of every z row for
    the full form (a product of fewer rows need not round each row the
    same). Sums equal those of zero-padded taps bit for bit; only the sign
    of an exact zero may differ."""
    products = []
    for i, (shared, k) in enumerate(taps):
        source = _tap_source(pre, k, shared, z0, z0 + z.shape[1])
        if source is not None:
            i0, i1, tap = source
            out = take(f"tap{i}", tap.shape[:2] + shared.shape[-1:])
            product = (_diag_scale(tap, shared, out) if shared.ndim == 1
                       else np.matmul(tap, shared, out=out))
            _cut_edges(product, z0 + i0, k, starts)
            products.append((i0, i1, product))
    for i0, i1, product in products:
        z[:, i0:i1] += product


def _layer_body(z, pre, pieces: int, z0: int, taps, starts: list[int], take, shortcut=None,
                mask=None) -> np.ndarray:
    """The memory-layer body of every pass, into z, which holds rows z0..
    of pre's numbering (both 2-D, stacking `pieces` pieces alike): z takes
    pre's rows (unless z is pre itself, as in scoring) and gains the taps
    (`_add_taps`); `mask`, when given, takes z > 0 of that relu input; then
    z takes the relu in place and adds `shortcut`, a (pieces, rows, width)
    view of the source's rows, when given. Returns z."""
    z3, pre3 = z.reshape(pieces, -1, z.shape[1]), pre.reshape(pieces, -1, pre.shape[1])
    if z is not pre:
        np.copyto(z3, pre3[:, z0 : z0 + z3.shape[1]])
    _add_taps(z3, pre3, z0, taps, starts, take)
    if mask is not None:
        np.greater(z, 0.0, out=mask)
    _relu(z, z)
    if shortcut is not None:
        z3 += shortcut
    return z


def model_input(config: RMNConfig, features: np.ndarray, lengths=None) -> np.ndarray:
    """Splice raw features into the model's input layout when configured.

    `lengths` stacks utterances of these frame counts, as `forward` takes
    them in scoring mode; each row's splice window stays inside its own
    utterance (`data.splice`)."""
    if config.splice_left == 0 and config.splice_right == 0:
        return np.asarray(features, dtype=np.float64)
    return data_mod.splice(features, config.splice_left, config.splice_right, lengths)


def _reach(config: RMNConfig) -> list[tuple[int, int]]:
    """(past, future) reach of each span entry g = 0..L (see `_layer_spans`):
    P_g, the sum of the delays of memory layers g..L-1, and F_g, the same sum
    for bidirectional models and 0 for unidirectional ones. Entry 0 is the
    whole stack's reach, entry L (0, 0)."""
    delays = delay_schedule(config) or [0] * config.num_memory_layers
    past = list(itertools.accumulate(reversed(delays), initial=0))[::-1]
    return [(p, p if config.direction == "bi" else 0) for p in past]


def _layer_spans(config: RMNConfig, lo: int, hi: int, t_frames: int) -> list[tuple[int, int]]:
    """Rows each stage computes so that rows [lo, hi) of the logits are exact:
    entry g is [lo - P_g, hi + F_g) clipped to the t_frames input, with the
    reach (P_g, F_g) of `_reach`. Entry l < L is memory layer l's
    pre-activation range (the input and projection blocks share entry 0),
    entry L the output blocks' rows and the last layer's output. A row
    outside a layer's range is never read on the way to an emitted row."""
    return [(max(0, lo - p), min(t_frames, hi + f)) for p, f in _reach(config)]


class Carry:
    """Stage rows one streamed utterance hands from a context window to the
    next, for `forward(..., carry=...)`.

    Each window is a prefix of the utterance, so a window row is an
    utterance row. Each stage a later window reads lives in a buffer as
    long as the utterance: the projection output (`proj_post`), each
    memory layer's pre-activation (`pre<l>`, the source of its taps), and
    the output of each layer that a shortcut reads (`out<l>`): 1 + L
    buffers plus one per shortcut source among the layer outputs. The next
    layer reads any other output only on the rows the window computes, and
    the output blocks read every requested row of the last output, which a
    window therefore computes afresh. At the paper's 18 layers with
    residual_interval 3 that is 24 buffers (the outputs of layers 3, 6, 9,
    12 and 15), against 37 for every output.

    A row of a stage is *final* when a later window, which reaches at least
    as far right, cannot change it: the row plus the stage's future reach
    lies inside the window, or the window ends where the utterance ends.
    The future reach below span entry g is F_0 - F_g (`_reach`): the sum of
    the delays of the layers below it for bidirectional models, 0 for
    unidirectional ones. The next window reads the final rows it needs from
    the buffers and recomputes the rest.

    Neither the first requested row nor the window's end may lie before the
    previous call's: the buffers hold only the rows earlier calls reached.
    """

    def __init__(self, t_frames: int):
        self.t_frames = t_frames
        self._buffers: dict[str, np.ndarray] = {}
        self._final: list[int] | None = None  # per span entry
        self._last = (0, 0)  # the previous call's first requested row and window end
        self._spans: list[tuple[int, int]] = []
        self._first: list[int] = []

    def start(self, config: RMNConfig, spans: list[tuple[int, int]], width: int) -> list[int]:
        """First row of each span the window [0, width) computes, taking the
        rows before it from the buffers, and all of the last span, the last
        output's, which no buffer holds; records the window's final rows for
        the next call."""
        lo, (last_lo, last_width) = spans[-1][0], self._last
        if not (last_lo <= lo and last_width <= width <= self.t_frames):
            raise ValueError(
                f"rows from {lo} of window [0, {width}) do not follow rows from "
                f"{last_lo} of [0, {last_width}) in a {self.t_frames}-frame utterance"
            )
        done = self._final or [0] * len(spans)
        first = [min(max(a, done[g]), b) for g, (a, b) in enumerate(spans[:-1])] + [lo]
        reach = _reach(config)  # the future reach below entry g is F_0 - F_g
        final = [max(d, b if width == self.t_frames else min(b, width - reach[0][1] + f))
                 for d, (_, b), (_, f) in zip(first, spans, reach)]
        self._final, self._last = final, (lo, width)
        self._spans, self._first = spans, first
        return first

    def keep(self, name: str, g: int, new: np.ndarray) -> np.ndarray:
        """Store the rows span entry g computed in this window and return
        the whole span, carried rows included."""
        buf = self._buffers.get(name)
        if buf is None:
            buf = self._buffers[name] = np.empty((self.t_frames,) + new.shape[1:])
        (a, b), d = self._spans[g], self._first[g]
        buf[d:b] = new
        return buf[a:b]


def _checked_input(config: RMNConfig, x) -> np.ndarray:
    """x as a float (frames, features) matrix of at least one frame and the
    model's input width, the one input check of `forward` and
    `streaming_forward`; a wrong rank or width names the shape given."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InputError(f"input must be a (frames, features) matrix, got shape {x.shape}")
    if x.shape[0] == 0:
        raise InputError("empty sequence: utterance has 0 frames")
    if x.shape[1] != config.input_dim:
        raise DimensionError(
            f"input of shape {x.shape} has {x.shape[1]} features, model expects {config.input_dim}"
        )
    return x


def forward(
    params: ModelParams,
    config: RMNConfig,
    x,
    rows: tuple[int, int] | None = None,
    *,
    carry: Carry | None = None,
    lengths=None,
    pieces: int = 1,
    buffers: _Buffers | None = None,
) -> tuple[ForwardCache, np.ndarray] | np.ndarray:
    """Run the pipeline on one utterance, returning (cache, logits) for
    `backward`; with `carry` or `lengths`, an inference mode, the logits
    alone.

    Pipeline: wide input block, projection into the memory width, L memory
    layers with delayed shared-weight taps and periodic identity shortcuts,
    then the wide output block and the classifier affine. No softmax is
    applied; the loss owns it.

    `rows` = (lo, hi) asks for the logits of rows lo..hi-1 only (default:
    every row) and computes each stage on just the rows that reach them
    (`_layer_spans`): memory layer l costs the requested rows plus its own
    reach P_l (and F_l) — all the delays from layer l up — and the output
    blocks cost the requested rows only. The logits equal rows lo..hi-1 of
    a full pass over x: taps beyond x's edges read zeros either way. Callers
    therefore pass all of x they have; `rows` alone decides which of it a
    chunk needs.

    `pieces` = B makes the training call one pass over a group: x stacks B
    utterances of equal length, one after another, and `rows` applies to
    each. Every stage array stacks the B pieces' rows the same way and is
    read through a (B, rows, width) view: one batched GEMM per stage
    (`affine`), whose every piece is the product the piece makes alone, and
    one numpy call per tap and per relu. So each piece's logits and cache
    rows are those of a call on it alone, bit for bit.

    `carry` makes x a prefix of a longer utterance, one context window (see
    `Carry` and `streaming_forward`): each stage then computes only the rows
    of its span that no earlier window finished, and the logits are
    unchanged.

    `lengths` switches to scoring: x stacks whole utterances of these frame
    counts, one after another, and every delayed tap reads only its own
    utterance's rows (zero outside them). Its GEMMs are 2-D products over
    the stacked rows, which may round a row in its last bits unlike a pass
    over its utterance alone. It takes neither `rows`, `carry` nor `pieces`.

    Every mode runs one memory-layer body (`_layer_body`), which
    `ForwardCache.output` runs too: the relu input z, the layer's
    pre-activation rows copied into its output array (in scoring the
    pre-activation itself, read by nothing later), gains the taps
    (`_add_taps`); training caches z > 0; the relu in z and the shortcut
    follow.

    `buffers` (a `_Buffers`, `trainer.fit`'s) receives every stage array,
    relu mask and tap product of the call and, through the cache, every
    array of its `backward`, which writes its gradients over the cache
    arrays it has finished reading: such a cache serves one `backward`,
    and the next call with the same buffers overwrites it. Without buffers
    every array is fresh, and a cache stays valid after later calls.

    The wiring, each layer's taps and shortcut, is worked out on each call
    (`_wiring`), and each tap reads its shared transform's values as the
    taps are added. Only the training call, with neither `carry` nor
    `lengths`, builds a cache, which carries the wiring to `backward`. A
    stage array is dropped once no later stage, shortcut or pass reads it:
    the inference modes keep none for a backward pass, and the training
    call holds of the memory layers' outputs only the shortcut sources and
    the last one (`ForwardCache`); the others share the buffer `out`.
    """
    scoring = lengths is not None
    if scoring and (rows is not None or carry is not None):
        raise ValueError("stacked utterance lengths cannot be combined with rows or carry")
    if pieces != 1 and (scoring or carry is not None):
        raise ValueError("pieces cannot be combined with lengths or carry")
    training = not scoring and carry is None
    x = _checked_input(config, x)
    if pieces < 1 or x.shape[0] % pieces:
        raise InputError(f"{x.shape[0]} frames do not split into {pieces} equal pieces")
    t_frames = x.shape[0] // pieces
    starts = []
    if scoring:
        lengths = [int(n) for n in lengths]
        if 0 in lengths:
            raise InputError("empty sequence: utterance has 0 frames")
        if sum(lengths) != t_frames or min(lengths) < 0:
            raise ValueError(f"utterance lengths {lengths} do not stack to {t_frames} frames")
        starts = list(itertools.accumulate(lengths[:-1]))
    lo, hi = (0, t_frames) if rows is None else rows
    if not 0 <= lo < hi <= t_frames:
        raise ValueError(f"rows {(lo, hi)} outside sequence of {t_frames} frames")

    spans = _layer_spans(config, lo, hi, t_frames)
    # first[g]: the first row of spans[g] computed here, the rows before it
    # being carried; keep(name, g, new) turns the new rows into the span
    if carry is None:
        first, keep = [a for a, _ in spans], lambda name, g, new: new
    else:
        first, keep = carry.start(config, spans, t_frames), carry.keep
    take = _take(buffers)

    def stage(name: str, v: np.ndarray, w: Parameter, b: Parameter, relu: bool = False):
        # affine(v, w, b) of the pieces, then any relu, in the buffer `name`
        h = affine(v, w.value, b.value, pieces=pieces, out=take(name, (len(v), w.value.shape[1])))
        return _relu(h, h) if relu else h

    input_post = stage("input_post", _window(x, pieces, first[0], spans[0][1]), params.input_w,
                       params.input_b, relu=True)
    outs = [keep("proj_post", 0, stage("proj_post", input_post, params.proj_w, params.proj_b,
                                       relu=True))]
    input_post = input_post if training else None  # only backward reads it

    wiring = _wiring(params, config)
    last_reader = list(range(len(wiring)))  # per outs[j], the last layer that reads it
    for l, (_, src) in enumerate(wiring):
        if src is not None:
            last_reader[src] = l
    # the outputs a later pass reads on rows it does not compute: the next
    # window the projection output and the shortcut sources (`carry.keep`),
    # backward those and the last output. Any other output is dropped once
    # the next layer has read it, and in a training call they share the
    # buffer `out`.
    carried = {0} | {src for _, src in wiring if src is not None}
    held = carried | {len(wiring)} if training else set()
    layer_pre, layer_mask = [], []
    for l, (taps, src) in enumerate(wiring):
        # pre covers spans[l] = (a, _) like outs[l]; this layer's output covers
        # spans[l + 1] = (_, d); rows from first[l] and first[l + 1] = f on are
        # new, and an output that is not carried holds only its new rows
        a, d, f = spans[l][0], spans[l + 1][1], first[l + 1]
        pre = keep(f"pre{l}", l, stage(f"pre{l}", outs[l][first[l] - a if l in carried else 0 :],
                                        params.layer_w[l], params.layer_b[l]))
        # z becomes the output in place; scoring's z is pre, which nothing else reads
        z = pre if scoring else take(f"out{l}" if l + 1 in held else "out",
                                     (pieces * (d - f), pre.shape[1]))
        shortcut = None
        if src is not None:
            c = spans[src][0]
            shortcut = outs[src].reshape(pieces, -1, pre.shape[1])[:, f - c : d - c]
        mask = take(f"mask{l}", z.shape, bool) if training else None
        out = _layer_body(z, pre, pieces, f - a, [(s.value, k) for s, k in taps], starts, take,
                          shortcut, mask)
        if training:
            layer_pre.append(pre)
            layer_mask.append(mask)
        pre = z = shortcut = None
        for j in (l, src):  # drop what no later stage, shortcut or backward reads
            if j is not None and last_reader[j] == l and j not in held:
                outs[j] = None
        outs.append(keep(f"out{l}", l + 1, out) if l + 1 in carried else out)

    out1_post = stage("out1_post", outs[-1], params.out1_w, params.out1_b, relu=True)
    if not training:
        outs = out = None
    logits = stage("logits", out1_post, params.out2_w, params.out2_b)
    if not training:
        return logits

    return ForwardCache(
        x=x,
        spans=spans,
        input_post=input_post,
        proj_post=outs[0],
        layer_pre=layer_pre,
        layer_mask=layer_mask,
        layer_out=outs[1:],
        out1_post=out1_post,
        logits=logits,
        params_ref=params,
        wiring=wiring,
        pieces=pieces,
        buffers=buffers,
    ), logits


def backward(
    params: ModelParams,
    config: RMNConfig,
    cache: ForwardCache,
    labels,
    loss_scale: float = 1.0,
    grad_window: tuple[int, int] | None = None,
) -> float:
    """Accumulate gradients of the mean-frame cross-entropy into params.

    Returns the (unscaled) loss. `loss_scale` multiplies every gradient
    contribution so several utterances can be combined into one objective.
    `labels` has one entry per row of the cached input. `grad_window` =
    (lo, hi) restricts the loss to rows lo..hi-1 and stops gradient from
    crossing below lo / above hi (truncated-chunk training); activations
    outside the window still feed the forward values as constants. It
    defaults to the rows the cache holds logits for, and must lie within
    them.

    A cache of B pieces (`forward`'s `pieces`) takes the B utterances'
    labels one after another, and `grad_window` applies to each. Each
    piece's gradient is that of its own mean loss times `loss_scale`, and
    the loss returned is the mean over every piece's window rows. Every
    GEMM is one batched call over the pieces (`affine_backward`), and each
    parameter takes their parts in one `Parameter.accumulate`, in piece
    order, its first part after `zero_grad` written and the rest added:
    the gradients are those of B calls on the pieces alone, bit for bit.

    Every gradient row outside the window is zero, so every GEMM, relu and
    diagonal scale runs on the window rows only; the delayed taps read
    their `pre[t -/+ m]` values from the cache outside the window. The
    weight gradients read each memory layer's input, and the first output
    block's, through `ForwardCache.output`: an output the cache does not
    hold is rebuilt from its layer's pre when the layer above reads it, on
    the window rows (the full form on the rows the forward computed), in
    the one buffer `out`; at the paper's residual_interval 3 that is 12
    of 18 outputs, and at interval 1 none.

    The wiring is that of the forward that built the cache (its `wiring`);
    nothing of `config` is read for it, so a config changed since that
    forward changes nothing here. Only the products are computed. A memory
    layer's relu gradient g, its incoming gradient times the cached mask, is
    written into an array of its own (the incoming gradient may also be a
    shortcut's) that every layer's g reuses. Once the shared transforms'
    weight gradients have read g, the adjoint of each tap (S, k), the tap
    (S^T, -k) on g's rows, is added into g by the tap rule (`_add_taps`).
    The weight gradients read their taps from `_tap_source` as well: the
    column sum of tap × g for the diagonal form, and `tap.T @ g` on the
    zero-padded tap for the full form, since a GEMM with a shorter inner
    dimension rounds differently; each layer's are kept until the pass ends,
    and then go to `accumulate` in one stack, piece by piece, top layer down
    within a piece. No copy of the relu gradient and no gradient at the
    input features is built, and a lone piece's weight product after
    `zero_grad` is written straight into its grad buffer. Every array the
    pass makes comes from the cache's buffers (see `forward`): a gradient
    takes the place of a cache array the pass has read for the last time (a
    pre-activation the taps have read, a block's output once its weight
    gradient has read it), and g and the tap and weight products have arrays
    of their own. A non-finite gradient reaching a relu stays non-finite
    (`relu_backward`: a gradient times a mask).
    """
    if cache.params_ref is not params:
        raise ConsistencyError("cache was produced by a different ModelParams instance")
    labels = np.asarray(labels)
    pieces, t_frames = cache.pieces, cache.x.shape[0]
    if labels.shape != (t_frames,):
        raise ConsistencyError(
            f"labels shape {labels.shape} does not match cached sequence of {t_frames} frames"
        )
    spans = cache.spans
    r_lo, r_hi = spans[-1]
    lo, hi = (r_lo, r_hi) if grad_window is None else grad_window
    if not (r_lo <= lo < hi <= r_hi):
        raise ValueError(f"grad_window {(lo, hi)} outside the cached logit rows {(r_lo, r_hi)}")
    take = _take(cache.buffers)

    def win(a: np.ndarray, start: int) -> np.ndarray:
        # rows lo..hi-1 of each piece of an array whose first row is row `start`
        return _window(a, pieces, lo - start, hi - start)

    def grads(v: np.ndarray, w: Parameter, b: Parameter, g: np.ndarray, into: str | None):
        # the weight and bias gradients of affine(v, w, b) given its output
        # gradient g, collected piece by piece in order. The gradient at v
        # goes to the buffer named `into` (None: not made), whose cache array
        # no later step reads (v's own, once the weight gradients have read
        # v). The weight products go to `weight_grad`, but a lone piece's
        # product after `zero_grad` goes straight into the grad buffer.
        grad = w.grad_to_overwrite() if pieces == 1 else None
        out = grad if grad is not None else take("weight_grad", (pieces,) + w.value.shape)
        g_v, g_w, g_b = affine_backward(
            v, w.value, g, pieces=pieces, grad_w_out=out,
            grad_x_out=None if into is None else take(into, v.shape), input_grad=into is not None)
        if grad is None:
            w.accumulate(g_w)
        b.accumulate(g_b)
        return g_v

    def relu_grads(post: np.ndarray, w: Parameter, b: Parameter, g: np.ndarray, into: str):
        # the gradient at the input of the relu whose output post feeds (w, b),
        # made in place in the buffer `into`
        mask = post > 0.0  # read before post's buffer takes the gradient
        g_post = grads(post, w, b, g, into)
        return np.multiply(g_post, mask, out=g_post)

    loss, g_logits = _softmax_xent(win(cache.logits, r_lo), win(labels[:, None], 0)[:, 0], pieces)
    g_logits *= loss_scale

    # classifier block
    g_out1_pre = relu_grads(win(cache.out1_post, r_lo), params.out2_w, params.out2_b, g_logits,
                            "out1_post")
    wiring = cache.wiring
    # g_outs[j]: the gradient at outs[j] (outs = [proj_post] + layer_out) from
    # the readers of outs[j] walked so far, the layer above it and any shortcut
    g_outs = {len(wiring): grads(cache.output(len(wiring), (lo, hi)), params.out1_w, params.out1_b,
                                 g_out1_pre, f"out{len(wiring) - 1}")}
    # per tap i of every layer, the same shared transform's gradients: in
    # parts[i][p, j] piece p's of the j-th layer with a tap source, top layer down
    shared = [s for s, _ in wiring[0][0]]
    parts = [take(f"shared{i}", (pieces, len(wiring)) + s.value.shape)
             for i, s in enumerate(shared)]
    counts = [0] * len(shared)
    for l, (layer_taps, src) in reversed(list(enumerate(wiring))):
        g_out = g_outs.pop(l + 1)
        if src is not None:
            g_outs[src] = g_out
        a, pre = spans[l][0], cache.layer_pre[l]
        # g_out may be a shortcut's too, so g_sum is in one array of its own,
        # which every layer reuses: its weight gradients read it last
        g_sum = np.multiply(g_out, win(cache.layer_mask[l], spans[l + 1][0]),
                            out=take("g_sum", g_out.shape))
        g3 = g_sum.reshape(pieces, -1, g_sum.shape[1])
        pre3 = pre.reshape(pieces, -1, pre.shape[1])
        taps = [(s.value, k) for s, k in layer_taps]
        for i, (s, k) in enumerate(taps):  # g3 holds rows lo - a.. of pre's numbering
            source = _tap_source(pre3, k, s, lo - a, hi - a)
            if source is not None:
                i0, i1, tap = source
                part = parts[i][:, counts[i]]
                counts[i] += 1
                if s.ndim == 1:
                    product = np.multiply(tap, g3[:, i0:i1], out=take("tap0", tap.shape))
                    np.add.reduce(product, axis=1, out=part)
                else:
                    np.matmul(tap.transpose(0, 2, 1), g3[:, i0:i1], out=part)
        # the adjoint of z[t] += S pre[t - k] is g[s] += S^T g[s + k] on the
        # window's rows (.T leaves a diagonal form's vector as it is)
        _add_taps(g3, g3, 0, [(s.T, -k) for s, k in taps], [], take)
        # the gradient at outs[l] takes the place of pre, read last by the taps
        g_below = grads(cache.output(l, (lo, hi)), params.layer_w[l], params.layer_b[l], g_sum,
                        f"pre{l}")
        if l in g_outs:
            g_below += g_outs[l]
        g_outs[l] = g_below
    for s, part, count in zip(shared, parts, counts):  # piece by piece, each top layer down
        s.accumulate(part[:, :count].reshape((-1,) + s.value.shape))

    a = spans[0][0]
    g_proj_pre = _relu_backward(win(cache.proj_post, a), g_outs[0], g_outs[0])
    g_input_pre = relu_grads(win(cache.input_post, a), params.proj_w, params.proj_b, g_proj_pre,
                             "input_post")
    grads(win(cache.x, 0), params.input_w, params.input_b, g_input_pre, None)
    return loss


def check_gradients(
    params: ModelParams,
    config: RMNConfig,
    x,
    labels,
    epsilon: float = 1e-5,
    corrupt: bool = False,
    checker=grad_check,
):
    """Worst relative error of the analytic gradients on one batch.

    Runs forward+backward once to populate the gradients, then compares
    every parameter entry against central finite differences of the loss
    with `checker` (`grad_check`, or `grad_check_resolved`, which also
    counts the entries below the loss's resolution), and returns what it
    returns. `corrupt` deliberately damages one gradient entry first
    (negative control for the verification tooling itself).
    """
    params.zero_grads()
    cache, _ = forward(params, config, x)
    backward(params, config, cache, labels)
    if corrupt:
        params.shared_past.grad.reshape(-1)[0] += 0.5

    def loss_only():
        return xent_loss(forward(params, config, x, lengths=[len(x)]), labels)

    return checker(loss_only, params.parameters(), epsilon)


def param_count(config: RMNConfig) -> int:
    """Closed-form trainable-entry count for an RMN/BRMN configuration."""
    c = config
    total = c.input_dim * c.wide_dim + c.wide_dim
    total += c.wide_dim * c.memory_dim + c.memory_dim
    total += c.num_memory_layers * (c.memory_dim * c.memory_dim + c.memory_dim)
    total += c.memory_dim * c.wide_dim + c.wide_dim
    total += c.wide_dim * c.num_classes + c.num_classes
    shared = c.memory_dim if c.shared_weight_form == "diagonal" else c.memory_dim**2
    total += shared
    if c.direction == "bi":
        total += shared
    return total


def param_count_lstmp(layers: int, cells: int, proj: int, input_dim: int, num_classes: int) -> int:
    """Parameter count of a stacked projected-LSTM classifier.

    Per layer: four gate blocks over [layer input, projected state] plus
    gate biases, plus the cell-to-projection matrix; a projection-to-class
    affine closes the stack.
    """
    if min(layers, cells, proj, input_dim, num_classes) < 1:
        raise ValueError("all LSTMP dimensions must be >= 1")
    # closed form, so that a huge layer count answers at once: every layer
    # reads [proj, proj] but the first, which reads [input_dim, proj]
    per_layer = 4 * cells * (proj + proj) + 4 * cells + proj * cells
    return layers * per_layer + 4 * cells * (input_dim - proj) + proj * num_classes + num_classes


def delay_span(config: RMNConfig) -> int:
    """Frames reachable through the delayed taps alone: sum of all m_l."""
    return _reach(config)[0][0]


def receptive_field(config: RMNConfig) -> tuple[int, int]:
    """Analytic (past, future) input reach of one output frame: the whole
    stack's reach (`_reach`) plus any splice context. Delays compound across
    the stack, since each layer's tap reads values that themselves reached
    back through earlier layers."""
    past, future = _reach(config)[0]
    return config.splice_left + past, config.splice_right + future


def probe_receptive_field(
    params: ModelParams, config: RMNConfig, t_frames: int, seed: int
) -> tuple[int, int]:
    """Measure the reach empirically by perturbing one raw input frame.

    Requires shared transforms that are not zero (a fresh init carries no
    delayed signal). Returns the maximal observed (past, future) distance
    at which any logit moves by more than 1e-9.
    """
    past_bound, future_bound = receptive_field(config)
    if t_frames < past_bound + future_bound + 2:
        raise WindowError(
            f"probe needs at least {past_bound + future_bound + 2} frames, got {t_frames}"
        )
    span = config.splice_width
    if config.input_dim % span != 0:
        raise DimensionError(
            f"input_dim {config.input_dim} is not divisible by splice span {span}"
        )
    raw_dim = config.input_dim // span
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=(t_frames, raw_dim))
    probe_at = future_bound + (t_frames - past_bound - future_bound - 1) // 2

    base = forward(params, config, model_input(config, raw), lengths=[t_frames])
    bumped = raw.copy()
    bumped[probe_at] += 1.0
    moved = forward(params, config, model_input(config, bumped), lengths=[t_frames])

    changed = np.nonzero(np.abs(moved - base).max(axis=1) > 1e-9)[0]
    if changed.size == 0:
        return 0, 0
    past = max(0, int(changed.max()) - probe_at)
    future = max(0, probe_at - int(changed.min()))
    return past, future


def streaming_forward(
    params: ModelParams, config: RMNConfig, x, chunk_size: int, lookahead: int
) -> np.ndarray:
    """Chunked evaluation with bounded future context.

    The utterance is processed in consecutive chunks; the context window of
    a chunk is the prefix of the utterance that ends `lookahead` frames
    after it, and each chunk's logits equal those of `forward` over that
    prefix alone. Each chunk is one `forward` call in its cache-free
    inference mode, and the chunks share one `Carry`:
    a stage row computed for one window is reused by the next whenever it
    does not depend on the window's right edge. A chunk therefore costs its
    own new rows plus the rows still waiting on lookahead, which later
    windows recompute; unidirectional models and bidirectional ones with
    lookahead at or beyond `delay_span` compute every row once, the rows of
    one full pass, and then reproduce the full-sequence logits.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if lookahead < 0:
        raise ValueError("lookahead must be >= 0")
    x = _checked_input(config, x)
    t_frames = x.shape[0]
    out = np.zeros((t_frames, config.num_classes))
    carry = Carry(t_frames)
    for start in range(0, t_frames, chunk_size):
        end = min(start + chunk_size, t_frames)
        out[start:end] = forward(params, config, x[: end + lookahead], rows=(start, end), carry=carry)
    return out


# --- checkpoint format -----------------------------------------------------
#
# Plain text, value-exact. Layout:
#   rmn-checkpoint v1
#   <config key> <value>          (one per line, fixed order)
#   param <name> <ndim> <dim...>
#   <values, one row per line, 17 significant digits>
# Parameters appear in the fixed declared order of ModelParams.

_CKPT_MAGIC = "rmn-checkpoint v1"


def save_checkpoint(model: Model, path) -> None:
    with open(path, "w") as fh:
        fh.write(_CKPT_MAGIC + "\n")
        for f in fields(RMNConfig):
            fh.write(f"{f.name} {format_value(f, getattr(model.config, f.name))}\n")
        for p in model.params.parameters():
            dims = " ".join(str(d) for d in p.value.shape)
            fh.write(f"param {p.name} {p.value.ndim} {dims}\n")
            for row in np.atleast_2d(p.value):
                fh.write(data_mod._format_row(row) + "\n")


def load_checkpoint(path) -> Model:
    """Read a checkpoint; any malformed, truncated or non-finite file, or
    one with more than whitespace after its last parameter, raises
    ValueError naming `path`.

    The rows of each parameter are read in blocks of `_CKPT_BLOCK_ROWS`,
    each parsed by the archive's row parser and copied into the parameter's
    values, so the reader holds the model plus one block of text. No
    `grad` or `velocity` buffer is made. A header that declares more values
    than the file can hold is refused before anything is allocated."""
    with open(path) as fh:
        try:
            return _read_checkpoint(fh)
        except KeyError as e:
            raise ValueError(f"{path}: checkpoint header lacks {e.args[0]!r}") from None
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


# 64 rows of the 4006-class output block are ~6 MB of text
_CKPT_BLOCK_ROWS = 64


def _read_checkpoint(fh) -> Model:
    if fh.readline().rstrip("\n") != _CKPT_MAGIC:
        raise ValueError("not a recognized checkpoint file")
    config_fields = {f.name: f for f in fields(RMNConfig)}
    kv = {}
    line = fh.readline()
    while line and not line.startswith("param "):
        key, _, val = line.rstrip("\n").partition(" ")
        if key not in config_fields:
            raise ValueError(f"unknown checkpoint header key {key!r}")
        if key in kv:
            raise ValueError(f"repeated checkpoint header key {key!r}")
        try:
            kv[key] = parse_value(config_fields[key], val)
        except ValueError as e:
            raise ValueError(f"header key {key!r}: {e}") from None
        line = fh.readline()
    config = RMNConfig(**{name: kv[name] for name in config_fields})
    # refused before allocating: every value takes a digit and a separator
    if 2 * param_count(config) > os.fstat(fh.fileno()).st_size:
        raise ValueError(f"header declares {param_count(config)} values, more than the file holds")
    params = ModelParams(config, rng=None)
    for p in params.parameters():
        if not line:
            raise ValueError("truncated checkpoint")
        words = line.split()
        try:  # exactly `param <name> <ndim> <dim>...`
            ndim, *shape = map(int, words[2:])
        except ValueError:  # a field that is not an integer, or no field at all
            ndim, shape = -1, []
        if words[:2] != ["param", p.name] or ndim != len(shape):
            raise ValueError(f"expected 'param {p.name} <ndim> <dim>...', found {line.rstrip()!r}")
        if tuple(shape) != p.value.shape:
            raise ValueError(f"parameter {p.name!r} shape {tuple(shape)} != expected {p.value.shape}")
        rows = np.atleast_2d(p.value)
        for lo in range(0, len(rows), _CKPT_BLOCK_ROWS):
            block = rows[lo : lo + _CKPT_BLOCK_ROWS]
            block[...] = _read_rows(fh, p.name, lo, block.shape)
        line = fh.readline()
    if any(rest.strip() for rest in itertools.chain([line], fh)):
        raise ValueError("content after the last parameter")
    return Model(config=config, params=params)


def _read_rows(fh, name: str, lo: int, shape: tuple[int, int]) -> np.ndarray:
    """Parse the next `shape[0]` lines of `fh`, rows `lo`.. of parameter
    `name`. The text is dropped on return, before the next block is read."""
    lines = list(itertools.islice(fh, shape[0]))
    # the writer ends every row with a newline; a file cut inside the last
    # number would otherwise load a different value
    if len(lines) < shape[0] or not lines[-1].endswith("\n"):
        raise ValueError(f"parameter {name!r} is truncated")
    return data_mod._parse_rows(lines, lambda i: f"parameter {name!r} row {lo + i}", shape[1])
