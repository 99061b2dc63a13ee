"""Frame-level cross-entropy training: SGD with momentum and L2 weight
decay, a ramp-then-halve learning-rate policy, utterance minibatching with
optional chunk truncation, and per-epoch metrics."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from . import data as data_mod
from .model import Model, RMNConfig, backward, forward, model_input, streaming_forward
from .numerics import NumericError, xent_loss

__all__ = [
    "TrainConfig",
    "EpochStats",
    "lr_for_epoch",
    "make_minibatches",
    "sgd_step",
    "fit",
    "evaluate",
    "evaluate_streaming",
    "check_corpus",
    "METRICS_HEADER",
    "format_stats_row",
]

SCHEDULES = ("ramp_then_halve", "constant_then_halve")


@dataclass
class TrainConfig:
    schedule: str = "ramp_then_halve"
    base_lr: float = 0.2
    peak_lr: float = 1.0
    ramp_epochs: int = 4
    halve_factor: float = 0.5
    momentum: float = 0.9
    l2: float = 1e-5
    max_utts_per_batch: int = 10
    truncation_chunk: int | None = 256
    max_epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0.0 < self.halve_factor < 1.0:
            raise ValueError("halve_factor must lie in (0, 1)")
        # a rate of 0 is allowed so smoke runs can prove params stay untouched
        for name, least in (("l2", 0), ("base_lr", 0), ("peak_lr", 0), ("max_utts_per_batch", 1),
                            ("max_epochs", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.schedule == "ramp_then_halve" and self.ramp_epochs < 1:
            raise ValueError("ramp_then_halve needs ramp_epochs >= 1")
        if self.schedule == "ramp_then_halve" and self.peak_lr < self.base_lr:
            raise ValueError(
                f"ramp_then_halve needs peak_lr >= base_lr, got {self.peak_lr} < {self.base_lr}"
            )
        if self.truncation_chunk is not None and self.truncation_chunk < 1:
            raise ValueError("truncation_chunk must be >= 1 or None")


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_ce: float
    valid_ce: float
    train_fer: float
    valid_fer: float
    wall_seconds: float


METRICS_HEADER = ",".join(f.name for f in fields(EpochStats))


def format_stats_row(s: EpochStats) -> str:
    """One `metrics.csv` row: the fields of `s` in declaration order, floats
    in their shortest round-trip form."""
    return ",".join(repr(getattr(s, f.name)) for f in fields(EpochStats))


def lr_for_epoch(config: TrainConfig, epoch: int, valid_ce_history) -> float:
    """Learning rate for `epoch` given validation CE of all earlier epochs.

    ramp_then_halve climbs linearly from base_lr to peak_lr over the first
    ramp_epochs+1 epochs; afterwards the rate carries forward and is
    multiplied by halve_factor every time the latest validation CE exceeds
    the previous epoch's. constant_then_halve starts flat at base_lr with
    the same halving rule active from epoch 2.
    """
    if epoch < 1:
        raise ValueError("epochs are counted from 1")
    hist = list(valid_ce_history)
    if config.schedule == "ramp_then_halve":
        if epoch <= config.ramp_epochs + 1:
            frac = (epoch - 1) / config.ramp_epochs
            return config.base_lr + (config.peak_lr - config.base_lr) * frac
        lr = config.peak_lr
        first_halving_epoch = config.ramp_epochs + 2
    else:
        lr = config.base_lr
        first_halving_epoch = 2
    for e in range(first_halving_epoch, epoch + 1):
        latest, prev = e - 2, e - 3
        if prev >= 0 and latest < len(hist) and hist[latest] > hist[prev]:
            lr *= config.halve_factor
    return lr


@dataclass
class BatchPiece:
    """One gradient-step unit: a chunk of one utterance.

    The forward pass reads the rest of the utterance as context; the loss
    and the gradients are confined to [chunk_start, chunk_end).
    """

    utt_index: int
    chunk_start: int
    chunk_end: int


def make_minibatches(
    corpus: data_mod.Corpus, max_utts: int, truncation_chunk: int | None, seed: int
) -> list[list[list[BatchPiece]]]:
    """Shuffle utterances and group them into batches of chunk columns.

    Returns a list of batches; each batch is a list of steps, and each step
    holds the k-th chunk of every utterance in the batch that still has
    one. Full-sequence mode (truncation_chunk=None) yields one step per
    batch covering whole utterances.
    """
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    order = np.random.default_rng(seed).permutation(len(corpus))
    batches = []
    for lo in range(0, len(order), max_utts):
        group = order[lo : lo + max_utts]
        per_utt = []
        for ui in group:
            t_frames = corpus.utterances[ui].num_frames
            chunk = t_frames if truncation_chunk is None else truncation_chunk
            pieces = [
                BatchPiece(int(ui), s, min(s + chunk, t_frames))
                for s in range(0, t_frames, chunk)
            ]
            per_utt.append(pieces)
        n_steps = max(len(p) for p in per_utt)
        steps = []
        for k in range(n_steps):
            step = [p[k] for p in per_utt if k < len(p)]
            steps.append(step)
        batches.append(steps)
    return batches


# Entries of a parameter that `sgd_step` updates at a time: one block each of
# value, grad, velocity and scratch is 1 MB, which stays in a core's L2 cache
# between the operations of one update
_SGD_BLOCK = 32768


def sgd_step(params, lr: float, momentum: float, l2: float) -> None:
    """Momentum SGD with L2 decay folded into the gradient; clears grads.

    velocity <- momentum * velocity - lr * (grad + l2 * value)
    value    <- value + velocity

    Each parameter's velocity is updated in blocks of `_SGD_BLOCK` entries
    through one scratch block, so no full-size temporary is made. Value and
    grad change only once the whole velocity is finite: a NumericError
    leaves the value and grad of that parameter and of every later one as
    they were.
    """
    plist = params.parameters()
    scratch = np.empty(min(_SGD_BLOCK, max((p.size for p in plist), default=0)))
    for p in plist:
        # flat views: all three buffers of a Parameter are C-contiguous
        value, grad, velocity = p.value.reshape(-1), p.grad.reshape(-1), p.velocity.reshape(-1)
        finite = True
        for lo in range(0, value.size, _SGD_BLOCK):
            vel = velocity[lo : lo + _SGD_BLOCK]
            step = np.multiply(value[lo : lo + _SGD_BLOCK], l2, out=scratch[: vel.size])
            step += grad[lo : lo + _SGD_BLOCK]
            step *= lr
            vel *= momentum
            vel -= step
            finite = finite and bool(np.isfinite(vel).all())
        if not finite:
            raise NumericError(
                f"non-finite update for {p.name or '<unnamed>'} "
                f"(lr={lr}, |grad|max={np.abs(p.grad).max():.3e})"
            )
        p.value += p.velocity
        p.zero_grad()


def _train_step(model: Model, corpus, step_pieces, lr, cfg: TrainConfig) -> None:
    total_frames = sum(p.chunk_end - p.chunk_start for p in step_pieces)
    for piece in step_pieces:
        utt = corpus.utterances[piece.utt_index]
        x = model_input(model.config, utt.features)
        rows = (piece.chunk_start, piece.chunk_end)
        cache, _ = forward(model.params, model.config, x, rows=rows)
        scale = (piece.chunk_end - piece.chunk_start) / total_frames
        backward(model.params, model.config, cache, utt.labels, loss_scale=scale, grad_window=rows)
    sgd_step(model.params, lr, cfg.momentum, cfg.l2)


# Rows per scoring forward. On the OpenBLAS this was measured with, each row
# of a stacked product rounds as it does for its utterance alone up to
# about 1500 rows, where the behavioural models' 64 -> 11 classifier stops
# doing so (ROADMAP, Measurements).
_GROUP_ROWS = 1000


def _groups(utterances, max_rows: int):
    """Consecutive utterances in runs of at most `max_rows` frames; an
    utterance longer than that forms a run of its own."""
    group, rows = [], 0
    for utt in utterances:
        if group and rows + utt.num_frames > max_rows:
            yield group
            group, rows = [], 0
        group.append(utt)
        rows += utt.num_frames
    if group:
        yield group


def _score(model: Model, groups, logits_of) -> tuple[float, float]:
    """Frame-weighted mean cross-entropy and frame error rate over groups of
    utterances; `logits_of(xs)` gives the stacked logits of a group's model
    inputs xs. Losses are summed per utterance, in corpus order."""
    total_frames = 0
    ce_sum = 0.0
    errors = 0
    for group in groups:
        logits = logits_of([model_input(model.config, utt.features) for utt in group])
        start = 0
        for utt in group:
            own = logits[start : start + utt.num_frames]
            start += utt.num_frames
            ce_sum += xent_loss(own, utt.labels) * utt.num_frames
            errors += int(np.sum(np.argmax(own, axis=1) != utt.labels))
            total_frames += utt.num_frames
    if not total_frames:
        raise ValueError("corpus is empty")
    return ce_sum / total_frames, errors / total_frames


def evaluate(model: Model, corpus: data_mod.Corpus) -> tuple[float, float]:
    """Mean per-frame cross-entropy and frame error rate over a corpus.

    Consecutive utterances are scored together, up to `_GROUP_ROWS` rows
    per `forward` call in scoring mode (`lengths`), which keeps no
    training cache. Each utterance's logits are those of a forward over it
    alone. Argmax ties break toward the lowest class index.
    """
    return _score(
        model, _groups(corpus.utterances, _GROUP_ROWS),
        lambda xs: forward(model.params, model.config, np.concatenate(xs),
                           lengths=[len(x) for x in xs]),
    )


def evaluate_streaming(
    model: Model, corpus: data_mod.Corpus, chunk_size: int, lookahead: int
) -> tuple[float, float]:
    """evaluate(), but logits come from bounded-lookahead chunked inference,
    one utterance at a time."""
    return _score(
        model, ([utt] for utt in corpus.utterances),
        lambda xs: streaming_forward(model.params, model.config, xs[0], chunk_size, lookahead),
    )


def check_corpus(config: RMNConfig, corpus: data_mod.Corpus, name: str) -> None:
    """Reject a corpus a model of this config cannot be trained or scored
    on: empty, holding a zero-frame utterance, unlabeled, non-finite, or of
    the wrong feature width or class count."""
    if len(corpus) == 0:
        raise ValueError(f"{name} corpus is empty")
    span = config.splice_width
    if corpus.feature_dim * span != config.input_dim:
        raise ValueError(
            f"{name} corpus features ({corpus.feature_dim} dims, splice x{span}) "
            f"do not match model input_dim {config.input_dim}"
        )
    if corpus.num_classes > config.num_classes:
        raise ValueError(
            f"{name} corpus has {corpus.num_classes} classes, model emits {config.num_classes}"
        )
    for utt in corpus.utterances:
        if utt.num_frames == 0:
            raise ValueError(f"{name} corpus: utterance {utt.id!r} has no frames")
        if utt.labels is None:
            raise ValueError(f"{name} corpus: utterance {utt.id!r} has no labels")
        if not np.isfinite(utt.features).all():
            raise ValueError(f"{name} corpus: utterance {utt.id!r} has non-finite features")


def fit(
    model: Model,
    train_corpus: data_mod.Corpus,
    valid_corpus: data_mod.Corpus,
    config: TrainConfig,
    on_epoch=None,
) -> list[EpochStats]:
    """Run the training regimen; returns per-epoch statistics.

    Stops at max_epochs or once the scheduled rate drops below
    base_lr / 64. `on_epoch(stats, model)` runs after every epoch; a truthy
    return requests an early stop. Fully deterministic for a given seed.
    """
    check_corpus(model.config, train_corpus, "train")
    check_corpus(model.config, valid_corpus, "valid")
    # every buffer training needs, made now in declared order: made on first
    # touch inside the first step, they would land among its temporaries
    for p in model.params.parameters():
        p.grad, p.velocity

    history: list[EpochStats] = []
    valid_ce_history: list[float] = []
    for epoch in range(1, config.max_epochs + 1):
        lr = lr_for_epoch(config, epoch, valid_ce_history)
        if lr < config.base_lr / 64.0:
            break
        started = time.perf_counter()
        batches = make_minibatches(
            train_corpus, config.max_utts_per_batch, config.truncation_chunk,
            seed=(config.seed * 100003 + epoch),
        )
        for batch in batches:
            for step_pieces in batch:
                _train_step(model, train_corpus, step_pieces, lr, config)
        train_ce, train_fer = evaluate(model, train_corpus)
        valid_ce, valid_fer = evaluate(model, valid_corpus)
        stats = EpochStats(
            epoch=epoch,
            lr=lr,
            train_ce=train_ce,
            valid_ce=valid_ce,
            train_fer=train_fer,
            valid_fer=valid_fer,
            wall_seconds=time.perf_counter() - started,
        )
        history.append(stats)
        valid_ce_history.append(valid_ce)
        if on_epoch is not None and on_epoch(stats, model):
            break
    return history
