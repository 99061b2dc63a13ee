"""Frame-level cross-entropy training: SGD with momentum and L2 weight
decay, a ramp-then-halve learning-rate policy, utterance minibatching with
optional chunk truncation, and per-epoch metrics."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import data as data_mod
from .model import (Model, RMNConfig, _Buffers, backward, forward, model_input,
                    streaming_forward)
from .numerics import LabelError, NumericError, _runs, xent_terms

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


# Entries of a run that `sgd_step` updates at a time: one block each of
# value, grad, velocity and scratch is 1 MB, which stays in a core's L2 cache
# between the operations of one update
_SGD_BLOCK = 32768


def sgd_step(params, lr: float, momentum: float, l2: float) -> None:
    """Momentum SGD with L2 decay folded into the gradient; clears grads.

    velocity <- momentum * velocity - lr * (grad + l2 * value)
    value    <- value + velocity

    The update passes over runs of parameters, not one parameter at a time:
    parameters whose values, gradients and velocities lie next to each
    other in flat arrays (`ModelParams`) form one run, and any other
    parameter is a run of its own (`numerics._runs`). Each run's velocity
    is updated in blocks of `_SGD_BLOCK` entries through one scratch block,
    so no full-size temporary is made, and each block is checked for
    finiteness; then one `value += velocity` and one fill of the gradients
    finish the run. Every entry gets the same five operations in the same
    order as on its parameter alone. Value and grad of a parameter change
    only once its whole velocity is finite: a NumericError leaves the value
    and grad of that parameter and of every later one as they were.
    """
    runs = _runs(params.parameters())
    scratch = np.empty(min(_SGD_BLOCK, max((run[1].size for run in runs), default=0)))
    for run in runs:
        plist, value, grad, velocity = run
        for lo in range(0, value.size, _SGD_BLOCK):
            vel = velocity[lo : lo + _SGD_BLOCK]
            step = np.multiply(value[lo : lo + _SGD_BLOCK], l2, out=scratch[: vel.size])
            step += grad[lo : lo + _SGD_BLOCK]
            step *= lr
            vel *= momentum
            vel -= step
            if not np.isfinite(vel).all():
                _stop(run, lo + int(np.argmin(np.isfinite(vel))), lr)
        value += velocity
        grad.fill(0.0)
        for p in plist:
            p._grad_is_zero = True


def _stop(run, bad: int, lr: float) -> None:
    """Finish the parameters of a run that lie before its entry `bad`, a
    velocity that is not finite, and raise NumericError naming the
    parameter that holds it."""
    plist, value, grad, velocity = run
    start = 0
    for i, p in enumerate(plist):
        if bad < start + p.size:
            break
        start += p.size
    value[:start] += velocity[:start]
    grad[:start] = 0.0
    for done in plist[:i]:
        done._grad_is_zero = True
    raise NumericError(
        f"non-finite update for {p.name or '<unnamed>'} "
        f"(lr={lr}, |grad|max={np.abs(p.grad).max():.3e})"
    )


def _train_step(model: Model, examples, step_pieces, lr, cfg: TrainConfig,
                buffers: _Buffers | None = None) -> None:
    """One SGD step over `step_pieces`; `examples[i]` is the (model input,
    labels) pair of utterance i. Each run of consecutive pieces of one
    shape, the same utterance length and chunk, is one group (`_groups`, at
    most `_GROUP_ROWS` input rows): one `forward` and one `backward` call
    over the pieces stacked, which add each piece's gradients, in piece
    order, as a call per piece would. `buffers` receives the stacked input
    and every array of the passes (see `forward`)."""
    buffers = buffers or _Buffers()
    total_frames = sum(p.chunk_end - p.chunk_start for p in step_pieces)

    def shape(piece):
        return len(examples[piece.utt_index][1]), piece.chunk_start, piece.chunk_end

    for group in _groups(step_pieces, _GROUP_ROWS, rows=lambda p: shape(p)[0], key=shape):
        t_frames, lo, hi = shape(group[0])
        inputs = [examples[p.utt_index][0] for p in group]
        x = np.concatenate(inputs, out=buffers.take("x", (len(group) * t_frames, inputs[0].shape[1])))
        labels = np.concatenate([examples[p.utt_index][1] for p in group])
        cache, _ = forward(model.params, model.config, x, rows=(lo, hi), pieces=len(group),
                           buffers=buffers)
        backward(model.params, model.config, cache, labels, loss_scale=(hi - lo) / total_frames,
                 grad_window=None if (lo, hi) == (0, t_frames) else (lo, hi))
    sgd_step(model.params, lr, cfg.momentum, cfg.l2)


# Input rows per scoring forward and per training group. A training group
# stacks pieces of one shape, and each piece's products are the GEMMs it
# makes alone; at paper widths (600-frame utterances) every piece stays a
# group of its own, so a step holds one piece's stage arrays at a time.
# Scoring stacks whole utterances in 2-D products, which can round a row's
# last bits differently from a forward over its utterance alone (ROADMAP,
# Measurements).
_GROUP_ROWS = 1000


def _groups(items, max_rows: int, rows=lambda utt: utt.num_frames, key=lambda item: None):
    """Consecutive items (utterances, by default) in runs of one `key` and
    at most `max_rows` rows, `rows(item)` each; an item of more rows than
    that forms a run of its own."""
    run, total = [], 0
    for item in items:
        n = rows(item)
        if run and (total + n > max_rows or key(item) != key(run[0])):
            yield run
            run, total = [], 0
        run.append(item)
        total += n
    if run:
        yield run


def _score(model: Model, groups, logits_of) -> tuple[float, float]:
    """Frame-weighted mean cross-entropy and frame error rate over groups of
    utterances; `logits_of(x, lengths)` gives the stacked logits of a
    group's model input x, its utterances of `lengths` frames one after
    another. Each group's features are spliced in one gather, and its loss
    terms and argmax made in one pass; losses are summed per utterance, in
    corpus order. The first utterance whose mean loss is not finite raises
    NumericError naming it: this is the one check of a scored loss."""
    total_frames = 0
    ce_sum = 0.0
    errors = 0
    for group in groups:
        lengths = [utt.num_frames for utt in group]
        features = np.concatenate([utt.features for utt in group])
        logits = logits_of(model_input(model.config, features, lengths), lengths)
        terms, labels = xent_terms(logits, [utt.labels for utt in group], lengths)
        start = 0
        for utt, n in zip(group, lengths):
            ce = float(np.mean(terms[start : start + n]))
            if not math.isfinite(ce):
                raise NumericError(f"non-finite loss for utterance {utt.id!r}")
            ce_sum += ce * n
            start += n
        errors += int(np.count_nonzero(np.argmax(logits, axis=1) != labels))
        total_frames += len(labels)
    if not total_frames:
        raise ValueError("corpus is empty")
    return ce_sum / total_frames, errors / total_frames


def evaluate(model: Model, corpus: data_mod.Corpus) -> tuple[float, float]:
    """Mean per-frame cross-entropy and frame error rate over a corpus.

    Consecutive utterances are scored together, up to `_GROUP_ROWS` rows
    per group: one splice gather over the group's stacked features, one
    `forward` call in scoring mode (`lengths`), which keeps no training
    cache and adds the delayed taps in place, and one loss and argmax pass
    over the stacked logits. The group's GEMMs run over its stacked rows,
    so an utterance's logits can differ in their last bits from those of a
    forward over it alone (at the criterion-07 widths, 7 to 10 of 204
    rows of twelve 17-frame utterances did), and the mean loss agrees with
    the per-utterance losses' within a relative 1e-12
    (`test_evaluate_is_frame_weighted`). Argmax ties break toward the
    lowest class index.
    """
    return _score(
        model, _groups(corpus.utterances, _GROUP_ROWS),
        lambda x, lengths: forward(model.params, model.config, x, lengths=lengths),
    )


def evaluate_streaming(
    model: Model, corpus: data_mod.Corpus, chunk_size: int, lookahead: int
) -> tuple[float, float]:
    """evaluate(), but logits come from bounded-lookahead chunked inference,
    one utterance at a time."""
    return _score(
        model, ([utt] for utt in corpus.utterances),
        lambda x, _: streaming_forward(model.params, model.config, x, chunk_size, lookahead),
    )


def _evaluate_epoch(model: Model, corpus: data_mod.Corpus, name: str, epoch: int):
    """`evaluate` after an epoch of `fit`; a NumericError names the set and
    the epoch."""
    try:
        return evaluate(model, corpus)
    except NumericError as e:
        raise NumericError(f"{e} of the {name} set after epoch {epoch}") from e


def check_corpus(config: RMNConfig, corpus: data_mod.Corpus, name: str) -> None:
    """Reject a corpus a model of this config cannot be trained or scored
    on: empty, holding a zero-frame utterance, unlabeled, non-finite, of
    the wrong feature width or class count, or with labels that are not
    one integer per frame in [0, num_classes) (LabelError for a label out
    of range). Training and scoring read the labels unchecked after this."""
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
        labels = np.asarray(utt.labels)
        if labels.shape != (utt.num_frames,) or not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"{name} corpus: utterance {utt.id!r} needs one integer label per "
                             f"frame, got {labels.dtype} labels of shape {labels.shape} for "
                             f"{utt.num_frames} frames")
        bad = np.flatnonzero((labels < 0) | (labels >= config.num_classes))
        if bad.size:
            raise LabelError(f"{name} corpus: utterance {utt.id!r} has label {labels[bad[0]]} "
                             f"out of range [0, {config.num_classes}) at frame {bad[0]}")


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
    A diverging run raises NumericError: from `sgd_step` at a non-finite
    update, or from `evaluate` at the first utterance whose loss after an
    epoch is not finite, training set first, naming the set and the epoch;
    that epoch is not recorded.

    Each training utterance is spliced into its model input once, before
    the first epoch, and every step and every scoring of the training set
    reads it from there: with a splice the run holds the training set's
    frames x `input_dim` x 8 bytes more (0.48 MB for 1000 frames of 60
    inputs, 12.7 MB for 3600 of 440); without one the model input is the
    features array itself. The training set is scored as a corpus of those
    inputs, by the same parameters under the config without its splice;
    the validation set is spliced group by group (`evaluate`).

    The model's flat gradient and velocity arrays are made before the first
    step, and a buffer a parameter held of its own before `fit` is copied
    into them (`Parameter._make_buffers`), so that `sgd_step` updates the
    parameters as one run.

    A step runs each group of equal-shaped pieces as one `forward` and one
    `backward` call (`_train_step`). An epoch's steps share one set of
    buffers (`model._Buffers`): the stacked input, the stage arrays, relu
    gradients, tap products and weight products, each sized by the most
    rows any step asked for. The memory-layer outputs that the cache does
    not hold (all but the shortcut sources and the last) and their rebuilds
    in `backward` share one buffer. The buffers are dropped before the
    epoch's scoring, whose arrays therefore do not add to theirs.
    """
    check_corpus(model.config, train_corpus, "train")
    check_corpus(model.config, valid_corpus, "valid")
    examples = [(model_input(model.config, utt.features), utt.labels)
                for utt in train_corpus.utterances]
    spliced = Model(replace(model.config, splice_left=0, splice_right=0), model.params)
    train_inputs = data_mod.Corpus(
        [data_mod.Utterance(utt.id, x, utt.labels)
         for utt, (x, _) in zip(train_corpus.utterances, examples)],
        model.config.input_dim, train_corpus.num_classes)
    # every buffer training needs, made now: made on first touch inside the
    # first step, they would land among its temporaries
    for p in model.params.parameters():
        p._make_buffers()

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
        buffers = _Buffers()
        for batch in batches:
            for step_pieces in batch:
                _train_step(model, examples, step_pieces, lr, config, buffers)
        buffers = None
        train_ce, train_fer = _evaluate_epoch(spliced, train_inputs, "training", epoch)
        valid_ce, valid_fer = _evaluate_epoch(model, valid_corpus, "validation", epoch)
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
