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
import os
from dataclasses import Field, dataclass, field, fields

import numpy as np

from . import data as data_mod
from .numerics import (
    DimensionError,
    Parameter,
    affine,
    affine_backward,
    diag_scale,
    diag_scale_backward,
    grad_check,
    relu,
    relu_backward,
    softmax_xent,
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

    `rng` draws the training init. With `rng` None the values are left
    unset, for a checkpoint reader to fill.
    """

    def __init__(self, config: RMNConfig, rng: np.random.Generator | None):
        c = config

        def gaussian(rows, cols, name):
            if rng is None:
                return Parameter(np.empty((rows, cols)), name)
            std = 0.2 / np.sqrt(rows)
            return Parameter(rng.normal(0.0, std, size=(rows, cols)), name)

        def zeros(shape, name):
            return Parameter(np.empty(shape) if rng is None else np.zeros(shape), name)

        self.input_w = gaussian(c.input_dim, c.wide_dim, "input_w")
        self.input_b = zeros(c.wide_dim, "input_b")
        self.proj_w = gaussian(c.wide_dim, c.memory_dim, "proj_w")
        self.proj_b = zeros(c.memory_dim, "proj_b")
        self.layer_w = [
            gaussian(c.memory_dim, c.memory_dim, f"layer{l + 1}_w")
            for l in range(c.num_memory_layers)
        ]
        self.layer_b = [zeros(c.memory_dim, f"layer{l + 1}_b") for l in range(c.num_memory_layers)]
        # shared transforms start at zero: the net first learns a static
        # frame mapping, then grows into the delayed taps
        shared = (c.memory_dim,) if c.shared_weight_form == "diagonal" else (c.memory_dim,) * 2
        self.shared_past = zeros(shared, "shared_past")
        self.shared_future = zeros(shared, "shared_future") if c.direction == "bi" else None
        self.out1_w = gaussian(c.memory_dim, c.wide_dim, "out1_w")
        self.out1_b = zeros(c.wide_dim, "out1_b")
        self.out2_w = gaussian(c.wide_dim, c.num_classes, "out2_w")
        self.out2_b = zeros(c.num_classes, "out2_b")

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
        for p in self.parameters():
            p.zero_grad()


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
    feed (l = 0 for the input block), `layer_sum[l]` covers spans[l + 1]
    like outs[l + 1], and `out1_post` and `logits` cover spans[-1], the
    requested rows. `input_post`, `proj_post` and `out1_post` feed the
    weight gradients of the affine after them and serve as their blocks'
    relu masks (relu(p) is positive exactly where p is). `layer_pre` holds
    each layer's own affine output (the tap source), `layer_sum` the relu
    input after the delayed terms (the layer's mask), `layer_out` the value
    after any shortcut.
    """

    x: np.ndarray
    spans: list[tuple[int, int]]
    input_post: np.ndarray
    proj_post: np.ndarray
    layer_pre: list[np.ndarray]
    layer_sum: list[np.ndarray]
    layer_out: list[np.ndarray]
    out1_post: np.ndarray
    logits: np.ndarray
    params_ref: ModelParams = field(repr=False, default=None)


def _rows(x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of x; an index outside x gives a zero row, so a
    tap that falls outside the utterance contributes nothing. A range
    inside x comes back as a view."""
    if start >= 0 and stop <= x.shape[0]:
        return x[start:stop]
    out = np.zeros((stop - start,) + x.shape[1:], dtype=x.dtype)
    lo, hi = max(start, 0), min(stop, x.shape[0])
    if lo < hi:
        out[lo - start : hi - start] = x[lo:hi]
    return out


def _stacked_rows(x: np.ndarray, k: int, starts: list[int]) -> np.ndarray:
    """Row t of x's delayed tap: x[t - k] when row t - k belongs to the
    same utterance as row t, else a zero row. x stacks utterances whose
    second and later ones begin at the rows in `starts`; k != 0."""
    out = _rows(x, -k, x.shape[0] - k)
    for s in starts:
        # the rows whose source lies across the edge at s: the k rows from s
        # for a past tap, the -k rows before s for a future one
        out[max(0, min(s, s + k)) : max(s, s + k)] = 0.0
    return out


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


def _apply_shared(tap: np.ndarray, shared: Parameter, form: str) -> np.ndarray:
    if form == "diagonal":
        return diag_scale(tap, shared.value)
    return tap @ shared.value


def _apply_shared_backward(tap: np.ndarray, shared: Parameter, form: str, g: np.ndarray):
    """(g_tap, g_shared): gradients of `_apply_shared` w.r.t. both inputs."""
    if form == "diagonal":
        return diag_scale_backward(tap, shared.value, g)
    return g @ shared.value.T, tap.T @ g


def model_input(config: RMNConfig, features: np.ndarray) -> np.ndarray:
    """Splice raw features into the model's input layout when configured."""
    if config.splice_left == 0 and config.splice_right == 0:
        return np.asarray(features, dtype=np.float64)
    return data_mod.splice(features, config.splice_left, config.splice_right)


def _layer_spans(config: RMNConfig, lo: int, hi: int, t_frames: int) -> list[tuple[int, int]]:
    """Rows each stage computes so that rows [lo, hi) of the logits are exact.

    Entry l < L is memory layer l's pre-activation range [lo - P_l,
    hi + F_l) clipped to the t_frames input, where P_l is the sum of the
    delays of layers l..L-1 and F_l the same sum for bidirectional models
    (0 for unidirectional ones); the input and projection blocks share
    entry 0. Entry L is [lo, hi) itself: the output blocks' rows, and the
    rows of the last layer's output. A row outside a layer's range is
    never read on the way to an emitted row.
    """
    reach = delay_schedule(config) or [0] * config.num_memory_layers
    spans = [(lo, hi)]
    past = 0
    for m in reversed(reach):
        past += m
        future = past if config.direction == "bi" else 0
        spans.append((max(0, lo - past), min(t_frames, hi + future)))
    return spans[::-1]


class Carry:
    """Stage rows one streamed utterance hands from a context window to the
    next, for `forward(..., carry=...)`.

    Each window is a prefix of the utterance, so a window row is an
    utterance row. Each stage a later window reads lives in a buffer as
    long as the utterance: the projection output (`proj_post`), and each
    memory layer's pre-activation (`pre<l>`, the source of its taps) and
    output (`out<l>`, read by the next layer and the shortcuts), 1 + 2L
    buffers in all. A row of a stage is *final* when a later window, which
    reaches at least as far right, cannot change it: the row plus the
    stage's future reach lies inside the window, or the window ends where
    the utterance ends. The future reach of span entry g (see
    `_layer_spans`) is the sum of the delays of the layers below it for
    bidirectional models and 0 for unidirectional ones. The next window
    reads the final rows it needs from the buffers and recomputes the rest.

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
        rows before it from the buffers; records the window's final rows for
        the next call."""
        lo, (last_lo, last_width) = spans[-1][0], self._last
        if not (last_lo <= lo and last_width <= width <= self.t_frames):
            raise ValueError(
                f"rows from {lo} of window [0, {width}) do not follow rows from "
                f"{last_lo} of [0, {last_width}) in a {self.t_frames}-frame utterance"
            )
        done = self._final or [0] * len(spans)
        first = [min(max(a, done[g]), b) for g, (a, b) in enumerate(spans)]
        future = delay_schedule(config) if config.direction == "bi" else []
        final = []
        for g, (a, b) in enumerate(spans):
            last = b if width == self.t_frames else min(b, width - sum(future[:g]))
            final.append(max(first[g], last))
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


def forward(
    params: ModelParams,
    config: RMNConfig,
    x,
    rows: tuple[int, int] | None = None,
    *,
    carry: Carry | None = None,
    lengths=None,
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

    `carry` makes x a prefix of a longer utterance, one context window (see
    `Carry` and `streaming_forward`): each stage then computes only the rows
    of its span that no earlier window finished, and the logits are
    unchanged.

    `lengths` switches to scoring: x stacks whole utterances of these frame
    counts, one after another, and every delayed tap reads only its own
    utterance's rows (zero outside them), so each utterance's logit rows
    are those of a pass over it alone. It takes neither `rows` nor `carry`.

    Only the training call, with neither `carry` nor `lengths`, builds a
    cache. The inference modes keep no stage array for a backward pass: one
    is dropped once no later stage or shortcut reads it.
    """
    scoring = lengths is not None
    if scoring and (rows is not None or carry is not None):
        raise ValueError("stacked utterance lengths cannot be combined with rows or carry")
    training = not scoring and carry is None
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InputError(f"input must be a (frames, features) matrix, got shape {x.shape}")
    if x.shape[0] == 0:
        raise InputError("empty sequence: utterance has 0 frames")
    if x.shape[1] != config.input_dim:
        raise DimensionError(
            f"input has {x.shape[1]} features, model expects {config.input_dim}"
        )
    t_frames = x.shape[0]
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
    input_post = relu(affine(x[first[0] : spans[0][1]], params.input_w.value, params.input_b.value))
    outs = [keep("proj_post", 0, relu(affine(input_post, params.proj_w.value, params.proj_b.value)))]
    input_post = input_post if training else None  # only backward reads it

    wiring = _wiring(params, config)
    # outs[j] feeds layer j, and the layer whose shortcut source is j
    last_reader = list(range(len(wiring)))
    for l, (_, src) in enumerate(wiring):
        if src is not None:
            last_reader[src] = l
    layer_pre, layer_sum = [], []
    for l, (taps, src) in enumerate(wiring):
        # pre covers spans[l] = (a, _) like outs[l]; this layer's output covers
        # spans[l + 1] = (_, d); rows from first[l] and first[l + 1] = f on are new
        a, d, f = spans[l][0], spans[l + 1][1], first[l + 1]
        pre = keep(f"pre{l}", l, affine(outs[l][first[l] - a :], params.layer_w[l].value,
                                        params.layer_b[l].value))
        z = pre[f - a : d - a]
        for shared, k in taps:
            tap = _stacked_rows(pre, k, starts) if scoring else _rows(pre, f - a - k, d - a - k)
            z = z + _apply_shared(tap, shared, config.shared_weight_form)
        out = relu(z)
        if src is not None:
            c = spans[src][0]
            out = out + outs[src][f - c : d - c]
        if training:
            layer_pre.append(pre)
            layer_sum.append(z)
        else:  # drop what no later stage or shortcut reads
            pre = z = None
            for j in (l, src):
                if j is not None and last_reader[j] == l:
                    outs[j] = None
        outs.append(keep(f"out{l}", l + 1, out))

    out1_post = relu(affine(outs[-1], params.out1_w.value, params.out1_b.value))
    if not training:
        outs = out = None
    logits = affine(out1_post, params.out2_w.value, params.out2_b.value)
    if not training:
        return logits

    return ForwardCache(
        x=x,
        spans=spans,
        input_post=input_post,
        proj_post=outs[0],
        layer_pre=layer_pre,
        layer_sum=layer_sum,
        layer_out=outs[1:],
        out1_post=out1_post,
        logits=logits,
        params_ref=params,
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

    Every gradient row outside the window is zero, so every GEMM, relu and
    diagonal scale runs on the window rows only; the delayed taps read
    their `pre[t -/+ m]` values from the cache outside the window.
    """
    if cache.params_ref is not params:
        raise ConsistencyError("cache was produced by a different ModelParams instance")
    labels = np.asarray(labels)
    t_frames = cache.x.shape[0]
    if labels.shape != (t_frames,):
        raise ConsistencyError(
            f"labels shape {labels.shape} does not match cached sequence of {t_frames} frames"
        )
    spans = cache.spans
    r_lo, r_hi = spans[-1]
    lo, hi = (r_lo, r_hi) if grad_window is None else grad_window
    if not (r_lo <= lo < hi <= r_hi):
        raise ValueError(f"grad_window {(lo, hi)} outside the cached logit rows {(r_lo, r_hi)}")

    def win(a: np.ndarray, start: int) -> np.ndarray:
        # rows lo..hi-1 of an array whose first row is row `start`
        return a[lo - start : hi - start]

    loss, g_logits = softmax_xent(win(cache.logits, r_lo), labels[lo:hi])
    g_logits *= loss_scale

    # classifier block
    g_out1_post = _affine_grads(win(cache.out1_post, r_lo), params.out2_w, params.out2_b, g_logits)
    g_out1_pre = relu_backward(win(cache.out1_post, r_lo), g_out1_post)
    outs = [cache.proj_post] + cache.layer_out
    # g_outs[j]: the gradient at outs[j] from the readers of outs[j] walked so
    # far, the layer above it and any shortcut
    g_outs = {len(outs) - 1: _affine_grads(
        win(outs[-1], r_lo), params.out1_w, params.out1_b, g_out1_pre)}
    for l, (taps, src) in reversed(list(enumerate(_wiring(params, config)))):
        g_out = g_outs.pop(l + 1)
        if src is not None:
            g_outs[src] = g_out
        a = spans[l][0]
        g_sum = relu_backward(win(cache.layer_sum[l], spans[l + 1][0]), g_out)
        g_pre = g_sum.copy()
        for shared, k in taps:
            tap = _rows(cache.layer_pre[l], lo - a - k, hi - a - k)
            g_tap, g_shared = _apply_shared_backward(tap, shared, config.shared_weight_form, g_sum)
            shared.accumulate(g_shared)
            # tap adjoint: gradient at z(t) lands on pre(t-k), dropped when
            # t-k falls outside the window
            g_pre += _rows(g_tap, k, hi - lo + k)
        g_below = _affine_grads(win(outs[l], a), params.layer_w[l], params.layer_b[l], g_pre)
        g_outs[l] = g_below + g_outs[l] if l in g_outs else g_below

    a = spans[0][0]
    g_proj_pre = relu_backward(win(cache.proj_post, a), g_outs[0])
    g_input_post = _affine_grads(win(cache.input_post, a), params.proj_w, params.proj_b, g_proj_pre)
    g_input_pre = relu_backward(win(cache.input_post, a), g_input_post)
    _affine_grads(cache.x[lo:hi], params.input_w, params.input_b, g_input_pre)
    return loss


def _affine_grads(x: np.ndarray, w: Parameter, b: Parameter, g: np.ndarray) -> np.ndarray:
    """Accumulate the weight and bias gradients of `affine(x, w, b)` given
    its output gradient g; returns the gradient at x."""
    g_x, g_w, g_b = affine_backward(x, w.value, g)
    w.accumulate(g_w)
    b.accumulate(g_b)
    return g_x


def check_gradients(
    params: ModelParams,
    config: RMNConfig,
    x,
    labels,
    epsilon: float = 1e-5,
    corrupt: bool = False,
) -> float:
    """Worst relative error of the analytic gradients on one batch.

    Runs forward+backward once to populate the gradients, then compares
    every parameter entry against central finite differences of the loss.
    `corrupt` deliberately damages one gradient entry first (negative
    control for the verification tooling itself).
    """
    params.zero_grads()
    cache, _ = forward(params, config, x)
    backward(params, config, cache, labels)
    if corrupt:
        params.shared_past.grad.reshape(-1)[0] += 0.5

    def loss_only():
        return xent_loss(forward(params, config, x, lengths=[len(x)]), labels)

    return grad_check(loss_only, params.parameters(), epsilon)


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
    return sum(delay_schedule(config))


def receptive_field(config: RMNConfig) -> tuple[int, int]:
    """Analytic (past, future) input reach of one output frame.

    Delays compound across the stack: each layer's tap feeds values that
    themselves reached back through earlier layers, so the bound is the sum
    of the per-layer delays plus any splice context.
    """
    span = delay_span(config)
    past = config.splice_left + span
    future = config.splice_right + (span if config.direction == "bi" else 0)
    return past, future


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
    x = np.asarray(x, dtype=np.float64)
    t_frames = x.shape[0]
    if t_frames == 0:
        raise InputError("empty sequence: utterance has 0 frames")
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
        except IndexError:
            raise ValueError(f"{path}: truncated checkpoint") from None
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
        kv[key] = val
        line = fh.readline()
    config = RMNConfig(**{name: parse_value(f, kv[name]) for name, f in config_fields.items()})
    # refused before allocating: every value takes a digit and a separator
    if 2 * param_count(config) > os.fstat(fh.fileno()).st_size:
        raise ValueError(f"header declares {param_count(config)} values, more than the file holds")
    params = ModelParams(config, rng=None)
    for p in params.parameters():
        header = line.split()
        if header[0] != "param" or header[1] != p.name:
            raise ValueError(f"expected parameter {p.name!r}, found {line.rstrip()!r}")
        ndim = int(header[2])
        shape = tuple(int(d) for d in header[3 : 3 + ndim])
        if shape != p.value.shape:
            raise ValueError(f"parameter {p.name!r} shape {shape} != expected {p.value.shape}")
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
    vals = data_mod._parse_rows(lines, lambda i: f"parameter {name!r} row {lo + i}")
    if vals.shape != shape:
        raise ValueError(f"parameter {name!r}: rows from {lo} have shape {vals.shape}, not {shape}")
    return vals
