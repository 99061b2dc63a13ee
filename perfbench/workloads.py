"""The three rmnlab workloads and the closed loop that drives them.

Load shape: one process, one Python thread, one BLAS thread; the next
library call starts only when the previous one has returned. Inputs
(archives and the evaluation checkpoint) are generated from the seed in an
untimed preparation step and the library only reads them back.

Every run goes through the public functions `read_archive`,
`mean_var_normalize`, `init_params` / `load_checkpoint`, `forward`, `fit`,
`evaluate`, `evaluate_streaming` and `save_checkpoint`. The untraced run
wraps only `sgd_step`, `evaluate` and `streaming_forward` in probes that
read the clock around them; the traced run adds a span around every call
listed in `tracer.TRACED`.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import rmnlab
from rmnlab import data, model, trainer

from .tracer import Patcher, Tracer

clock = time.perf_counter

STREAM_TOLERANCE = 1e-9  # criterion-06 tolerance for streaming against full evaluation
RECALL_DELAY = 6         # frames between a recall task's input and its label, as in criteria 07/08


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    task: str                   # "delayed-recall" or "future-recall"
    raw_dim: int                # one-hot classes per raw frame
    frames: int                 # frames per utterance
    utts: int                   # training (or evaluation) utterances
    valid_utts: int             # validation utterances; 0 for evaluation workloads
    model: dict                 # RMNConfig fields
    train: dict = field(default_factory=dict)  # TrainConfig fields; empty for evaluation
    setup_repeats: int = 3      # set-ups per untraced run; setup_s is the fastest
    stream: tuple[int, int] | None = None  # (chunk, lookahead) of evaluate_streaming
    reload_check: bool = False  # reload the last checkpoint and compare it bit for bit

    @property
    def trains(self) -> bool:
        return bool(self.train)


PAPER_WIDTHS = dict(input_dim=440, num_memory_layers=18, num_classes=4006, wide_dim=1024,
                    memory_dim=512, shared_weight_form="diagonal", splice_left=5, splice_right=5)

# Training workloads hold the learning rate flat (a ramp that never ends), so
# no halving can end `fit` early and every epoch costs the same.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tiny-train",
            why="criterion-07 model at 100 frames: ~100 small numpy calls per utterance, no FLOPs to "
                "speak of; shows per-call overhead, segment batching and per-step cost",
            task="delayed-recall", raw_dim=10, frames=100, utts=10, valid_utts=2,
            model=dict(input_dim=60, num_memory_layers=8, num_classes=11, wide_dim=64, memory_dim=32,
                       direction="uni", shared_weight_form="diagonal", residual_interval=1,
                       splice_left=5),
            train=dict(base_lr=0.05, peak_lr=0.05, ramp_epochs=10**6, max_utts_per_batch=5,
                       truncation_chunk=None),
            setup_repeats=200, reload_check=True,
        ),
        Workload(
            name="paper-train",
            why="paper shape, 600-frame utterances in 256-frame chunks: GEMM- and softmax-bound, "
                "171 context rows per chunk, 10 M-parameter SGD and a 230 MB checkpoint write",
            task="delayed-recall", raw_dim=40, frames=600, utts=6, valid_utts=1,
            model=dict(PAPER_WIDTHS, direction="uni"),
            train=dict(base_lr=0.01, peak_lr=0.01, ramp_epochs=10**6, max_utts_per_batch=2,
                       truncation_chunk=256),
        ),
        Workload(
            name="paper-eval",
            why="paper widths, bidirectional, 300-frame utterances: forward only; loads a 230 MB "
                "checkpoint, then full and streaming (chunk 32, lookahead 171) evaluation",
            task="future-recall", raw_dim=40, frames=300, utts=2, valid_utts=0,
            model=dict(PAPER_WIDTHS, direction="bi"),
            setup_repeats=2, stream=(32, 171),
        ),
    )
}


# -- small statistics ---------------------------------------------------------

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it (nearest rank).

    Returns (percentile, value), or None when fewer than 20 samples exist.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = -(-round(p * 10) * n // 1000)  # ceil(p/100 * n) in integers
        if rank >= 1 and n - rank >= 10:
            return p, xs[rank - 1]
    return None


def ce_digest(*values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


# -- inputs -------------------------------------------------------------------


@dataclass
class Inputs:
    archives: list[str]         # train (and valid) archive, or the evaluation archive
    checkpoint: str | None = None
    reference: list | None = None  # parameter arrays the checkpoint was written from


def _source_digest() -> str:
    h = hashlib.sha256()
    for name in ("data.py", "model.py", "numerics.py"):
        with open(os.path.join(os.path.dirname(rmnlab.__file__), name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:12]


def eval_params(w: Workload):
    """The randomized parameters of the evaluation checkpoint. They do not
    depend on the seed, so one file per checkout serves every run."""
    config = model.RMNConfig(**w.model)
    params = model.init_params(config, 1)
    model.randomize_params(params, 2)
    return config, params


def prepare(w: Workload, seed: int, rundir: str, cachedir: str) -> Inputs:
    gen = data.gen_delayed_recall if w.task == "delayed-recall" else data.gen_future_recall
    os.makedirs(rundir, exist_ok=True)
    paths = []
    for part, count, sub in (("train", w.utts, 0), ("valid", w.valid_utts, 1)):
        if count:
            path = os.path.join(rundir, f"{part}.ark")
            data.write_archive(gen(w.raw_dim, RECALL_DELAY, w.frames, count, seed * 2 + sub), path)
            paths.append(path)
    if w.trains:
        return Inputs(paths)
    config, params = eval_params(w)
    ckpt = os.path.join(cachedir, f"{w.name}-{_source_digest()}.ckpt")
    if not os.path.exists(ckpt):
        tmp = f"{ckpt}.{os.getpid()}.tmp"
        model.save_checkpoint(model.Model(config, params), tmp)
        os.replace(tmp, ckpt)
    return Inputs(paths, ckpt, [p.value for p in params.parameters()])


# -- the run ------------------------------------------------------------------


class Ledger:
    """Operations attempted and failed; an operation is a train step, an
    evaluated utterance, or a checkpoint read or write."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ops: int, ok: bool, what: str = "") -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.notes.append(what)


class Probe:
    """Return-time probes for the untraced end-to-end numbers."""

    def __init__(self):
        self.step_returns: list[float] = []
        self.epoch_steps: list[int] = []            # len(step_returns) at each epoch end
        self.evals: list[tuple[int, float]] = []    # (frames, seconds) per evaluate call
        self.streams: list[tuple[int, float]] = []  # (frames, seconds) per streamed utterance

    def install(self, patcher: Patcher) -> None:
        def sgd(fn):
            def probe(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.step_returns.append(clock())
                return out
            return probe

        def evaluate(fn):
            def probe(m, corpus, *args, **kwargs):
                t0 = clock()
                out = fn(m, corpus, *args, **kwargs)
                self.evals.append((corpus.total_frames(), clock() - t0))
                return out
            return probe

        def streaming(fn):
            def probe(params, config, x, *args, **kwargs):
                t0 = clock()
                out = fn(params, config, x, *args, **kwargs)
                self.streams.append((len(x), clock() - t0))
                return out
            return probe

        patcher.install(trainer, "sgd_step", sgd)
        patcher.install(trainer, "evaluate", evaluate)
        patcher.install(trainer, "streaming_forward", streaming)

    def step_intervals(self) -> list[float]:
        out, lo = [], 0
        for hi in self.epoch_steps:
            out.extend(np.diff(self.step_returns[lo:hi]).tolist())
            lo = hi
        return out


def best_rate(units) -> float:
    return max(frames / seconds for frames, seconds in units)


@dataclass
class Session:
    setup_s: list[float] = field(default_factory=list)
    ckpt_s: list[float] = field(default_factory=list)
    units: list[tuple[int, float]] = field(default_factory=list)  # (frames, seconds) per epoch or streamed utterance
    wall_s: float = 0.0
    probe: Probe = field(default_factory=Probe)
    digests: list[str] = field(default_factory=list)

    def step_samples(self) -> list[float]:
        """Seconds per operation: train step interval, or streamed utterance."""
        return self.probe.step_intervals() or [t for _, t in self.probe.streams]

    def end_to_end(self) -> dict:
        # The fastest unit, not the mean: on a shared machine whole runs slow
        # down by up to half, while the fastest of many short units repeats.
        return {
            "setup_s": (min(self.setup_s), "s"),
            "frames_per_s": (best_rate(self.units), "frames/s"),
            "eval_frames_per_s": (best_rate(self.probe.evals), "frames/s"),
            "step_ms_min": (1e3 * min(self.step_samples()), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def summary(self) -> str:
        steps = self.step_samples()
        tail = tail_percentile(steps)
        rates = [f / t for f, t in self.units]
        return (f"step_ms median={1e3 * statistics.median(steps):.3f} "
                + (f"p{tail[0]:g}={1e3 * tail[1]:.3f}" if tail else "no-tail-percentile")
                + f" n={len(steps)}; frames_per_s median={statistics.median(rates):.6g} n={len(rates)}; "
                + f"ckpt_s median={statistics.median(self.ckpt_s):.4g} min={min(self.ckpt_s):.4g} n={len(self.ckpt_s)}")


def _params_equal(params, reference) -> bool:
    ours = [p.value for p in params.parameters()]
    return len(ours) == len(reference) and all(
        a.shape == b.shape and np.array_equal(a, b) for a, b in zip(ours, reference)
    )


def _setup(w: Workload, seed: int, inputs: Inputs, s: Session, ledger: Ledger):
    """Read and normalise the archives, build the model, warm it up."""
    t0 = clock()
    corpora = [rmnlab.mean_var_normalize(rmnlab.read_archive(p)) for p in inputs.archives]
    if w.trains:
        config = rmnlab.RMNConfig(**w.model)
        m = rmnlab.Model(config, rmnlab.init_params(config, seed))
    else:
        t1 = clock()
        m = rmnlab.load_checkpoint(inputs.checkpoint)
        s.ckpt_s.append(clock() - t1)
    first = corpora[0].utterances[0].features
    rmnlab.forward(m.params, m.config, rmnlab.model_input(m.config, first))
    s.setup_s.append(clock() - t0)
    if not w.trains:
        ledger.record(1, _params_equal(m.params, inputs.reference), "loaded checkpoint differs")
    return m, corpora


def _train(w: Workload, seed: int, m, corpora, s: Session, ledger: Ledger, rundir: str, deadline: float):
    train_corpus, valid_corpus = corpora
    tconfig = rmnlab.TrainConfig(**w.train, max_epochs=10**6, seed=seed)
    ckpt = os.path.join(rundir, "epoch.ckpt")
    epoch_started = clock()

    def on_epoch(stats, trained):
        nonlocal epoch_started
        s.units.append((train_corpus.total_frames(), clock() - epoch_started))
        s.probe.epoch_steps.append(len(s.probe.step_returns))
        s.digests.append(f"epoch={stats.epoch} "
                         + ce_digest(stats.train_ce, stats.valid_ce, stats.train_fer, stats.valid_fer))
        ok = all(math.isfinite(v) for v in (stats.train_ce, stats.valid_ce))
        ledger.record(len(train_corpus) + len(valid_corpus), ok, f"epoch {stats.epoch}: non-finite loss")
        t0 = clock()
        rmnlab.save_checkpoint(trained, ckpt)   # as `rmnlab train` does after every epoch
        s.ckpt_s.append(clock() - t0)
        ledger.record(1, True)
        epoch_started = clock()
        return epoch_started + s.units[-1][1] > deadline   # stop before an epoch would overrun

    rmnlab.fit(m, train_corpus, valid_corpus, tconfig, on_epoch=on_epoch)
    ledger.record(len(s.probe.step_returns), True)
    if w.reload_check:
        reloaded = rmnlab.load_checkpoint(ckpt)
        ledger.record(1, _params_equal(reloaded.params, [p.value for p in m.params.parameters()]),
                      "reloaded checkpoint differs")


def _evaluate(w: Workload, m, corpora, s: Session, ledger: Ledger, deadline: float):
    (corpus,) = corpora
    chunk, lookahead = w.stream
    # one utterance per call: more, shorter units to take the fastest of
    singles = [rmnlab.Corpus([u], corpus.feature_dim, corpus.num_classes) for u in corpus.utterances]
    while True:
        started = clock()
        for single in singles:
            ce, fer = rmnlab.evaluate(m, single)
            ledger.record(1, math.isfinite(ce), "non-finite evaluation loss")
            sce, sfer = rmnlab.evaluate_streaming(m, single, chunk, lookahead)
            same = abs(sce - ce) <= STREAM_TOLERANCE and abs(sfer - fer) <= STREAM_TOLERANCE
            ledger.record(1, same, f"streaming ce/fer {sce!r}/{sfer!r} != full {ce!r}/{fer!r}")
            s.digests.append(f"eval {single.utterances[0].id} {ce_digest(ce, fer)}")
        if 2 * clock() - started > deadline:   # stop before a pass would overrun
            break
    s.units = s.probe.streams


def run_session(w: Workload, seed: int, seconds: float, inputs: Inputs, ledger: Ledger,
                rundir: str, setup_repeats: int, tracer: Tracer | None = None) -> Session:
    s = Session()
    with Patcher() as patcher:
        if tracer is not None:
            tracer.install(patcher)
        s.probe.install(patcher)
        t0 = clock()
        # half the set-ups before the work and half after it, so one slow
        # stretch of the machine cannot cover them all
        before = (setup_repeats + 1) // 2
        for _ in range(before):
            m = corpora = None  # drop the previous model before building the next
            m, corpora = _setup(w, seed, inputs, s, ledger)
        deadline = clock() + seconds
        if w.trains:
            _train(w, seed, m, corpora, s, ledger, rundir, deadline)
        else:
            _evaluate(w, m, corpora, s, ledger, deadline)
        m = corpora = None
        for _ in range(setup_repeats - before):
            _setup(w, seed, inputs, s, ledger)
        s.wall_s = clock() - t0
    return s


# -- per-layer metrics from the spans -----------------------------------------

NUMERICS = ("affine", "affine_backward", "relu", "relu_backward", "diag_scale",
            "diag_scale_backward", "softmax_xent")


STAGE_GROUPS = ("input", "proj", "memory", "out1", "out2")


def stage_group(label: str) -> str:
    return "memory" if label.startswith("layer_w") else label[: -len("_w")]


def per_layer(tracer: Tracer, traced: Session, untraced: Session) -> dict:
    a = tracer.arrays()
    names = tracer.names
    by_name = {n: a["name"] == i for i, n in enumerate(names)}
    empty = np.zeros_like(a["dur"], dtype=bool)

    def sel(name):
        return by_name.get(name, empty)

    def total(col, name):
        return float(a[col][sel(name)].sum())

    def calls(name):
        return int(sel(name).sum())

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    fwd = sel("model.forward")
    streamed = np.zeros_like(fwd)
    streaming_ids = np.nonzero(sel("model.streaming_forward"))[0]
    if streaming_ids.size:
        streamed = fwd & np.isin(a["parent"], streaming_ids)
    # rows whose logits leave the model: training windows, evaluated frames,
    # and for streaming only the chunk proper of every context window
    useful_rows = float(a["useful"][fwd & ~streamed].sum()) + total("useful", "model.streaming_forward")
    forward_rows = total("work", "model.forward")

    numerics_calls = 0
    for f in NUMERICS:
        q = f"numerics.{f}"
        numerics_calls += calls(q)
        out[f"{q}.calls"] = (calls(q), "count")
        out[f"{q}.self_s"] = (total("self", q), "s")
    for f in ("affine", "affine_backward"):
        q = f"numerics.{f}"
        gflop = total("work", q) / 1e9
        out[f"{q}.gflop"] = (gflop, "GFLOP")
        out[f"{q}.gflop_per_s"] = (ratio(gflop, total("self", q)), "GFLOP/s")
    out["numerics.calls_per_frame"] = (ratio(numerics_calls, useful_rows), "calls/frame")

    out["model.forward.calls"] = (calls("model.forward"), "count")
    out["model.forward.self_s"] = (total("self", "model.forward"), "s")
    out["model.forward.rows"] = (forward_rows, "rows")
    out["model.forward.useful_row_ratio"] = (ratio(useful_rows, forward_rows), "ratio")
    out["model.backward.calls"] = (calls("model.backward"), "count")
    out["model.backward.self_s"] = (total("self", "model.backward"), "s")
    out["model.backward.useful_row_ratio"] = (
        ratio(total("useful", "model.backward"), total("work", "model.backward")), "ratio")
    out["model.streaming_forward.self_s"] = (total("self", "model.streaming_forward"), "s")
    for f in ("save_checkpoint", "load_checkpoint"):
        out[f"model.{f}.s"] = (total("dur", f"model.{f}"), "s")
        out[f"model.{f}.mb"] = (total("work", f"model.{f}") / 1e6, "MB")

    groups = np.array([STAGE_GROUPS.index(stage_group(l)) for l in tracer.stage_names] or [0])
    for group_index, group in enumerate(STAGE_GROUPS):
        for f, key in (("affine", "fwd_s"), ("affine_backward", "bwd_s")):
            mask = sel(f"numerics.{f}") & (a["stage"] >= 0)
            in_group = groups[a["stage"][mask]] == group_index
            out[f"model.stage.{group}.{key}"] = (float(a["self"][mask][in_group].sum()), "s")

    out["trainer.fit.self_s"] = (total("self", "trainer.fit"), "s")
    out["trainer.make_minibatches.s"] = (total("dur", "trainer.make_minibatches"), "s")
    out["trainer.sgd_step.calls"] = (calls("trainer.sgd_step"), "count")
    out["trainer.sgd_step.s"] = (total("dur", "trainer.sgd_step"), "s")
    out["trainer.sgd_step.gb_moved"] = (total("work", "trainer.sgd_step") / 1e9, "GB")
    out["trainer.evaluate.s"] = (total("dur", "trainer.evaluate"), "s")
    out["trainer.evaluate_streaming.self_s"] = (total("self", "trainer.evaluate_streaming"), "s")

    read_s = total("dur", "data.read_archive")
    out["data.read_archive.s"] = (read_s, "s")
    out["data.read_archive.mb_per_s"] = (ratio(total("work", "data.read_archive") / 1e6, read_s), "MB/s")
    out["data.splice.calls"] = (calls("data.splice"), "count")
    out["data.splice.s"] = (total("dur", "data.splice"), "s")

    top = a["parent"] < 0
    out["trace.coverage"] = (ratio(float(a["dur"][top].sum()), traced.wall_s), "ratio")
    out["trace.overhead_ratio"] = (best_rate(untraced.units) / best_rate(traced.units) - 1.0, "ratio")
    out["trace.spans"] = (len(a["dur"]), "count")
    return out


# -- entry --------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str, spec: Workload | None = None) -> dict:
    """One benchmark run; returns the result object and prints progress lines."""
    w = spec or WORKLOADS[name]
    rundir = os.path.join(workdir, f"run-{os.getpid()}")
    ledger = Ledger()
    metrics: dict = {}
    try:
        inputs = prepare(w, seed, rundir, workdir)
        # a traced run splits its time between an untraced and a traced session
        repeats, session_s = (1, seconds / 2) if trace else (w.setup_repeats, seconds)
        base = run_session(w, seed, session_s, inputs, ledger, rundir, repeats)
        for d in base.digests:
            print(f"digest {w.name} seed={seed} {d}")
        if trace:
            tracer = Tracer(f"{w.name}-seed{seed}-pid{os.getpid()}")
            traced = run_session(w, seed, session_s, inputs, ledger, rundir, repeats, tracer)
            tracer.write(os.path.join(workdir, f"trace-{w.name}-seed{seed}.npz"))
            metrics = per_layer(tracer, traced, base)
        else:
            metrics = base.end_to_end()
            print(f"{w.name}: {base.summary()}")
    except Exception:
        traceback.print_exc()
        ledger.record(1, False, "exception")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for note in ledger.notes:
        print(f"failed: {note}", file=sys.stderr)
    print(f"failed_op_ratio {w.name}: {ledger.failed}/{ledger.attempted}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
