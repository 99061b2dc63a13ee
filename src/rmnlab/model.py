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
    relu,
    relu_backward,
    softmax_xent,
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
    "context_bounds",
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
    """

    def __init__(self, config: RMNConfig, rng: np.random.Generator):
        c = config

        def gaussian(rows, cols, name):
            std = 0.2 / np.sqrt(rows)
            return Parameter(rng.normal(0.0, std, size=(rows, cols)), name)

        self.input_w = gaussian(c.input_dim, c.wide_dim, "input_w")
        self.input_b = Parameter(np.zeros(c.wide_dim), "input_b")
        self.proj_w = gaussian(c.wide_dim, c.memory_dim, "proj_w")
        self.proj_b = Parameter(np.zeros(c.memory_dim), "proj_b")
        self.layer_w = [
            gaussian(c.memory_dim, c.memory_dim, f"layer{l + 1}_w")
            for l in range(c.num_memory_layers)
        ]
        self.layer_b = [
            Parameter(np.zeros(c.memory_dim), f"layer{l + 1}_b")
            for l in range(c.num_memory_layers)
        ]
        # shared transforms start at zero: the net first learns a static
        # frame mapping, then grows into the delayed taps
        if c.shared_weight_form == "diagonal":
            self.shared_past = Parameter(np.zeros(c.memory_dim), "shared_past")
        else:
            self.shared_past = Parameter(np.zeros((c.memory_dim, c.memory_dim)), "shared_past")
        if c.direction == "bi":
            if c.shared_weight_form == "diagonal":
                self.shared_future = Parameter(np.zeros(c.memory_dim), "shared_future")
            else:
                self.shared_future = Parameter(np.zeros((c.memory_dim, c.memory_dim)), "shared_future")
        else:
            self.shared_future = None
        self.out1_w = gaussian(c.memory_dim, c.wide_dim, "out1_w")
        self.out1_b = Parameter(np.zeros(c.wide_dim), "out1_b")
        self.out2_w = gaussian(c.wide_dim, c.num_classes, "out2_w")
        self.out2_b = Parameter(np.zeros(c.num_classes), "out2_b")

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
    """Everything the backward pass replays.

    All cached sequences share the frame count of the input. `layer_pre`
    holds each layer's own affine output (the tap source), `layer_sum` the
    relu input after delayed terms, `layer_out` the post-activation value
    after any residual shortcut.
    """

    x: np.ndarray
    input_pre: np.ndarray
    input_post: np.ndarray
    proj_pre: np.ndarray
    proj_post: np.ndarray
    layer_pre: list[np.ndarray]
    layer_sum: list[np.ndarray]
    layer_out: list[np.ndarray]
    shortcut_layers: list[int]      # 1-based layer indices that add a shortcut
    out1_pre: np.ndarray
    out1_post: np.ndarray
    logits: np.ndarray
    params_ref: ModelParams = field(repr=False, default=None)


def shift_rows(x: np.ndarray, k: int) -> np.ndarray:
    """Shift rows later by k (k>0) or earlier by -k (k<0), zero-filling.

    out[t] = x[t-k] when that row exists, else zeros; a tap that falls
    outside the utterance contributes nothing.
    """
    out = np.zeros_like(x)
    if k == 0:
        out[:] = x
    elif k > 0:
        if k < x.shape[0]:
            out[k:] = x[:-k]
    else:
        if -k < x.shape[0]:
            out[:k] = x[-k:]
    return out


def _apply_shared(h_shifted: np.ndarray, shared: Parameter, form: str) -> np.ndarray:
    if form == "diagonal":
        return diag_scale(h_shifted, shared.value)
    return h_shifted @ shared.value


def model_input(config: RMNConfig, features: np.ndarray) -> np.ndarray:
    """Splice raw features into the model's input layout when configured."""
    if config.splice_left == 0 and config.splice_right == 0:
        return np.asarray(features, dtype=np.float64)
    return data_mod.splice(features, config.splice_left, config.splice_right)


def forward(params: ModelParams, config: RMNConfig, x) -> tuple[ForwardCache, np.ndarray]:
    """Run the full pipeline on one utterance, returning (cache, logits).

    Pipeline: wide input block, projection into the memory width, L memory
    layers with delayed shared-weight taps and periodic identity shortcuts,
    then the wide output block and the classifier affine. No softmax is
    applied; the loss owns it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InputError(f"input must be a (frames, features) matrix, got shape {x.shape}")
    if x.shape[0] == 0:
        raise InputError("empty sequence: utterance has 0 frames")
    if x.shape[1] != config.input_dim:
        raise DimensionError(
            f"input has {x.shape[1]} features, model expects {config.input_dim}"
        )

    sched = delay_schedule(config)
    input_pre = affine(x, params.input_w.value, params.input_b.value)
    input_post = relu(input_pre)
    proj_pre = affine(input_post, params.proj_w.value, params.proj_b.value)
    proj_post = relu(proj_pre)

    layer_pre: list[np.ndarray] = []
    layer_sum: list[np.ndarray] = []
    layer_out: list[np.ndarray] = []
    shortcut_layers: list[int] = []

    v = proj_post
    block_input = proj_post
    interval = config.residual_interval
    for l in range(config.num_memory_layers):
        pre = affine(v, params.layer_w[l].value, params.layer_b[l].value)
        z = pre
        if config.delay_enabled:
            m = sched[l]
            z = z + _apply_shared(shift_rows(pre, m), params.shared_past, config.shared_weight_form)
            if config.direction == "bi":
                z = z + _apply_shared(
                    shift_rows(pre, -m), params.shared_future, config.shared_weight_form
                )
        out = relu(z)
        if interval is not None and (l + 1) % interval == 0:
            out = out + block_input
            block_input = out
            shortcut_layers.append(l + 1)
        layer_pre.append(pre)
        layer_sum.append(z)
        layer_out.append(out)
        v = out

    out1_pre = affine(v, params.out1_w.value, params.out1_b.value)
    out1_post = relu(out1_pre)
    logits = affine(out1_post, params.out2_w.value, params.out2_b.value)

    cache = ForwardCache(
        x=x,
        input_pre=input_pre,
        input_post=input_post,
        proj_pre=proj_pre,
        proj_post=proj_post,
        layer_pre=layer_pre,
        layer_sum=layer_sum,
        layer_out=layer_out,
        shortcut_layers=shortcut_layers,
        out1_pre=out1_pre,
        out1_post=out1_post,
        logits=logits,
        params_ref=params,
    )
    return cache, logits


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
    `grad_window` = (lo, hi) restricts the loss to rows lo..hi-1 and stops
    gradient from crossing below lo / above hi (truncated-chunk training);
    activations outside the window still feed the forward values as
    constants.
    """
    if cache.params_ref is not params:
        raise ConsistencyError("cache was produced by a different ModelParams instance")
    labels = np.asarray(labels)
    t_frames = cache.x.shape[0]
    if labels.shape != (t_frames,):
        raise ConsistencyError(
            f"labels shape {labels.shape} does not match cached sequence of {t_frames} frames"
        )
    lo, hi = (0, t_frames) if grad_window is None else grad_window
    if not (0 <= lo < hi <= t_frames):
        raise ValueError(f"grad_window {(lo, hi)} outside sequence of {t_frames} frames")

    loss, g_rows = softmax_xent(cache.logits[lo:hi], labels[lo:hi])
    g_logits = np.zeros_like(cache.logits)
    g_logits[lo:hi] = g_rows * loss_scale

    def clip_window(g):
        # stop-gradient outside the truncation window
        if lo > 0:
            g[:lo] = 0.0
        if hi < t_frames:
            g[hi:] = 0.0
        return g

    # classifier block
    g_out1_post, g_w, g_b = affine_backward(cache.out1_post, params.out2_w.value, g_logits)
    params.out2_w.accumulate(g_w)
    params.out2_b.accumulate(g_b)
    g_out1_pre = relu_backward(cache.out1_pre, g_out1_post)
    g_v, g_w, g_b = affine_backward(cache.layer_out[-1], params.out1_w.value, g_out1_pre)
    params.out1_w.accumulate(g_w)
    params.out1_b.accumulate(g_b)

    sched = delay_schedule(config)
    form = config.shared_weight_form
    # gradients waiting to be added when a shortcut source's row is reached;
    # key 0 means the projection output
    pending: dict[int, np.ndarray] = {}

    for l in range(config.num_memory_layers - 1, -1, -1):
        layer_no = l + 1
        if layer_no in cache.shortcut_layers:
            src = layer_no - config.residual_interval
            pending[src] = pending.get(src, 0.0) + g_v
        g_sum = relu_backward(cache.layer_sum[l], g_v)
        g_pre = g_sum.copy()
        if config.delay_enabled:
            m = sched[l]
            pre = cache.layer_pre[l]
            past_tap = shift_rows(pre, m)
            if form == "diagonal":
                g_tap, g_shared = diag_scale_backward(past_tap, params.shared_past.value, g_sum)
            else:
                g_tap = g_sum @ params.shared_past.value.T
                g_shared = past_tap.T @ g_sum
            params.shared_past.accumulate(g_shared)
            # tap adjoint: gradient at z(t) lands on pre(t-m)
            g_pre += clip_window(shift_rows(g_tap, -m))
            if config.direction == "bi":
                future_tap = shift_rows(pre, -m)
                if form == "diagonal":
                    g_tap, g_shared = diag_scale_backward(
                        future_tap, params.shared_future.value, g_sum
                    )
                else:
                    g_tap = g_sum @ params.shared_future.value.T
                    g_shared = future_tap.T @ g_sum
                params.shared_future.accumulate(g_shared)
                g_pre += clip_window(shift_rows(g_tap, m))
        below = cache.layer_out[l - 1] if l > 0 else cache.proj_post
        g_below, g_w, g_b = affine_backward(below, params.layer_w[l].value, g_pre)
        params.layer_w[l].accumulate(g_w)
        params.layer_b[l].accumulate(g_b)
        if l in pending:
            g_below = g_below + pending.pop(l)
        g_v = g_below

    g_proj_pre = relu_backward(cache.proj_pre, g_v)
    g_input_post, g_w, g_b = affine_backward(cache.input_post, params.proj_w.value, g_proj_pre)
    params.proj_w.accumulate(g_w)
    params.proj_b.accumulate(g_b)
    g_input_pre = relu_backward(cache.input_pre, g_input_post)
    _, g_w, g_b = affine_backward(cache.x, params.input_w.value, g_input_pre)
    params.input_w.accumulate(g_w)
    params.input_b.accumulate(g_b)
    return loss


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
    from .numerics import grad_check, softmax_xent as _xent

    params.zero_grads()
    cache, _ = forward(params, config, x)
    backward(params, config, cache, labels)
    if corrupt:
        params.shared_past.grad.reshape(-1)[0] += 0.5

    def loss_only():
        _, logits = forward(params, config, x)
        loss, _ = _xent(logits, labels)
        return loss

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
    total = 0
    for layer in range(layers):
        layer_input = input_dim if layer == 0 else proj
        total += 4 * cells * (layer_input + proj) + 4 * cells + proj * cells
    total += proj * num_classes + num_classes
    return total


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

    _, base = forward(params, config, model_input(config, raw))
    bumped = raw.copy()
    bumped[probe_at] += 1.0
    _, moved = forward(params, config, model_input(config, bumped))

    changed = np.nonzero(np.abs(moved - base).max(axis=1) > 1e-9)[0]
    if changed.size == 0:
        return 0, 0
    past = max(0, int(changed.max()) - probe_at)
    future = max(0, probe_at - int(changed.min()))
    return past, future


def context_bounds(
    config: RMNConfig, start: int, end: int, t_frames: int, lookahead: int
) -> tuple[int, int]:
    """Rows [lo, hi) chunk [start, end) of a t_frames utterance runs on: the
    `delay_span` rows every delay tap needs before it and `lookahead` rows
    after it, clipped to the utterance."""
    return max(0, start - delay_span(config)), min(t_frames, end + lookahead)


def streaming_forward(
    params: ModelParams, config: RMNConfig, x, chunk_size: int, lookahead: int
) -> np.ndarray:
    """Chunked evaluation with bounded future context.

    The utterance is processed in consecutive chunks; each chunk is
    extended with `lookahead` future frames (and with enough past frames to
    serve every delay tap), but logits are emitted for the chunk proper
    only. With lookahead at or beyond the future receptive field this
    reproduces the full-sequence forward pass.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if lookahead < 0:
        raise ValueError("lookahead must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    t_frames = x.shape[0]
    out = np.zeros((t_frames, config.num_classes))
    for start in range(0, t_frames, chunk_size):
        end = min(start + chunk_size, t_frames)
        ctx_lo, ctx_hi = context_bounds(config, start, end, t_frames, lookahead)
        _, logits = forward(params, config, x[ctx_lo:ctx_hi])
        out[start:end] = logits[start - ctx_lo : end - ctx_lo]
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
_REAL_FMT = "%.17g"


def save_checkpoint(model: Model, path) -> None:
    with open(path, "w") as fh:
        fh.write(_CKPT_MAGIC + "\n")
        for f in fields(RMNConfig):
            fh.write(f"{f.name} {format_value(f, getattr(model.config, f.name))}\n")
        for p in model.params.parameters():
            dims = " ".join(str(d) for d in p.value.shape)
            fh.write(f"param {p.name} {p.value.ndim} {dims}\n")
            rows = p.value.reshape(p.value.shape[0], -1) if p.value.ndim == 2 else p.value.reshape(1, -1)
            for row in rows:
                fh.write(" ".join(_REAL_FMT % v for v in row) + "\n")


def load_checkpoint(path) -> Model:
    """Read a checkpoint; any malformed or truncated file raises ValueError
    naming `path`."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a recognized checkpoint file")
    kv = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("param "):
        key, _, val = lines[i].partition(" ")
        kv[key] = val
        i += 1
    try:
        config = RMNConfig(**{f.name: parse_value(f, kv[f.name]) for f in fields(RMNConfig)})
        params = init_params(config, seed=0)
        for p in params.parameters():
            header = lines[i].split()
            if header[0] != "param" or header[1] != p.name:
                raise ValueError(f"expected parameter {p.name!r}, found {lines[i]!r}")
            ndim = int(header[2])
            shape = tuple(int(d) for d in header[3 : 3 + ndim])
            if shape != p.value.shape:
                raise ValueError(f"parameter {p.name!r} shape {shape} != expected {p.value.shape}")
            n_rows = shape[0] if ndim == 2 else 1
            vals = []
            for r in range(n_rows):
                i += 1
                vals.extend(float(v) for v in lines[i].split())
            i += 1
            p.value[...] = np.array(vals).reshape(p.value.shape)
            p.grad[...] = 0.0
            p.velocity[...] = 0.0
    except KeyError as e:
        raise ValueError(f"{path}: checkpoint header lacks {e.args[0]!r}") from None
    except IndexError:
        raise ValueError(f"{path}: truncated checkpoint") from None
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return Model(config=config, params=params)
