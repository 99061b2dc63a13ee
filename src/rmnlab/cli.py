"""Command-line surface: data generation, training, evaluation,
gradient verification, parameter counting and the layer-count sweep.

Every command is deterministic given its seed. Exit codes are uniform:
0 success, 1 runtime/numeric failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import codecs
import os
import sys
from dataclasses import MISSING, fields, replace
from functools import partial

import numpy as np

from . import data as data_mod
from .model import (
    DIRECTIONS,
    SHARED_FORMS,
    Model,
    RMNConfig,
    check_gradients,
    init_params,
    load_checkpoint,
    param_count,
    param_count_lstmp,
    parse_value,
    randomize_params,
    save_checkpoint,
)
from .numerics import GRAD_BOUND, NumericError, grad_check_resolved
from .trainer import (
    METRICS_HEADER,
    TrainConfig,
    EpochStats,
    check_corpus,
    evaluate,
    evaluate_streaming,
    fit,
    format_stats_row,
)


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, missing key, bad value)."""


# key -> (parser, default); MISSING defaults must come from the file/flags.
# input_dim and num_classes are taken from the training corpus.
EXPERIMENT_KEYS = {key: (str, MISSING) for key in ("train_archive", "valid_archive", "out_dir")}
EXPERIMENT_KEYS.update(
    (f.name, (partial(parse_value, f), f.default))
    for cls in (RMNConfig, TrainConfig)
    for f in fields(cls)
    if f.name not in ("input_dim", "num_classes")
)


def load_experiment_config(
    path: str, overrides: dict[str, str], supplied: tuple[str, ...] = ()
) -> dict:
    """Read a `key = value` file, apply command-line overrides, type-check.

    The file must be UTF-8 text; a leading byte-order mark is skipped. Lines
    may carry `#` comments; unknown keys are rejected and all required keys
    must be present before any work starts, except the keys in `supplied`,
    which the caller sets itself and which are left out of the result when
    absent.
    """
    raw: dict[str, str] = {}
    try:
        with open(path, "rb") as fh:
            lines = fh.read().removeprefix(codecs.BOM_UTF8).splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from None
    for line_no, line in enumerate(lines, start=1):
        try:
            text = line.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}:{line_no}: not UTF-8 text ({e.reason})") from None
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if key not in EXPERIMENT_KEYS:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        raw[key] = value
    for key, value in overrides.items():
        if key not in EXPERIMENT_KEYS:
            raise ConfigError(f"unknown override key {key!r}")
        raw[key] = value

    settings = {}
    for key, (parse, default) in EXPERIMENT_KEYS.items():
        if key in raw:
            try:
                settings[key] = parse(raw[key])
            except ValueError as e:
                raise ConfigError(f"bad value for {key!r}: {raw[key]!r} ({e})") from None
        elif key in supplied:
            continue
        elif default is MISSING:
            raise ConfigError(f"missing required key {key!r}")
        else:
            settings[key] = default
    return settings


def _load_experiment(args, layer_counts: list[int] | None = None):
    """Read and validate everything a training run needs, before anything
    is written: the settings, both corpora (`check_corpus`), the
    TrainConfig and one RMNConfig per entry of `layer_counts` (default: the
    configured layer count), none of them too large to train in physical
    memory. Returns (settings, train corpus, valid corpus, TrainConfig,
    [RMNConfig])."""
    # a sweep's --layers gives every run its depth
    supplied = () if layer_counts is None else ("num_memory_layers",)
    settings = load_experiment_config(args.config, _collect_overrides(args), supplied)
    train_corpus = data_mod.read_archive(settings["train_archive"])
    valid_corpus = data_mod.read_archive(settings["valid_archive"])

    def picked(cls):
        return {f.name: settings[f.name] for f in fields(cls) if f.name in settings}

    if layer_counts is None:
        layer_counts = [settings["num_memory_layers"]]
    model_configs = []
    for layers in layer_counts:
        c = RMNConfig(**{**picked(RMNConfig), "num_memory_layers": layers},
                      input_dim=train_corpus.feature_dim, num_classes=train_corpus.num_classes)
        model_configs.append(replace(c, input_dim=train_corpus.feature_dim * c.splice_width))
    train_config = TrainConfig(**picked(TrainConfig))
    # the corpus checks read the input width and class count, which every
    # layer count shares
    check_corpus(model_configs[0], train_corpus, "train")
    check_corpus(model_configs[0], valid_corpus, "valid")
    memory = _physical_memory()
    for c in model_configs:
        count = param_count(c)
        # training holds a value, a gradient and a velocity per entry
        if memory is not None and 24 * count > memory:
            raise ConfigError(f"a model of {count} parameters needs {24 * count} bytes to train, "
                              f"more than the {memory} bytes of physical memory")
    return settings, train_corpus, valid_corpus, train_config, model_configs


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return memory if memory > 0 else None


def _collect_overrides(args) -> dict[str, str]:
    return {k: v for k, v in vars(args).items() if k in EXPERIMENT_KEYS and v is not None}


def _check_least(*checks) -> None:
    """Reject the first (flag, value, least) whose value is below `least`,
    naming the flag the user typed rather than the field it fills."""
    for flag, value, least in checks:
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")


# the operands of `params --compare-lstmp`, in order
LSTMP_DIMENSIONS = ("LAYERS", "CELLS", "PROJ", "INPUT", "CLASSES")

# `gen` flags that only some tasks read, with their defaults
GEN_TASK_FLAGS = {"classes": 10, "delay": 6, "window": 3}


def cmd_gen(args) -> int:
    used = ("window",) if args.task == "parity" else ("classes", "delay")
    for name in GEN_TASK_FLAGS:
        if name not in used and hasattr(args, name):
            raise ConfigError(f"task {args.task!r} does not use --{name}")
    opt = {name: getattr(args, name, default) for name, default in GEN_TASK_FLAGS.items()}
    if args.task == "delayed-recall":
        corpus = data_mod.gen_delayed_recall(opt["classes"], opt["delay"], args.frames, args.count, args.seed)
    elif args.task == "future-recall":
        corpus = data_mod.gen_future_recall(opt["classes"], opt["delay"], args.frames, args.count, args.seed)
    else:
        corpus = data_mod.gen_parity(opt["window"], args.frames, args.count, args.seed)
    data_mod.write_archive(corpus, args.out)
    print(f"wrote {len(corpus)} utterances ({corpus.total_frames()} frames, "
          f"{corpus.num_classes} classes) to {args.out}")
    return 0


def cmd_train(args) -> int:
    settings, train_corpus, valid_corpus, train_config, (model_config,) = _load_experiment(args)
    model = Model(model_config, init_params(model_config, train_config.seed))

    out_dir = settings["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    with open(metrics_path, "w") as fh:
        fh.write(METRICS_HEADER + "\n")

    def on_epoch(stats: EpochStats, m: Model):
        with open(metrics_path, "a") as fh:
            fh.write(format_stats_row(stats) + "\n")
        save_checkpoint(m, os.path.join(out_dir, f"epoch_{stats.epoch:03d}.ckpt"))
        print(
            f"epoch {stats.epoch}: lr={stats.lr:.6g} train_ce={stats.train_ce:.4f} "
            f"valid_ce={stats.valid_ce:.4f} train_fer={stats.train_fer:.4f} "
            f"valid_fer={stats.valid_fer:.4f}"
        )
        return False

    fit(model, train_corpus, valid_corpus, train_config, on_epoch=on_epoch)
    save_checkpoint(model, os.path.join(out_dir, "final.ckpt"))
    print(f"training done; metrics in {metrics_path}")
    return 0


def cmd_eval(args) -> int:
    if args.stream is not None:
        chunk, lookahead = args.stream
        _check_least(("--stream CHUNK", chunk, 1), ("--stream LOOKAHEAD", lookahead, 0))
    model = load_checkpoint(args.checkpoint)
    corpus = data_mod.read_archive(args.corpus)
    check_corpus(model.config, corpus, "eval")
    if args.stream is not None:
        ce, fer = evaluate_streaming(model, corpus, chunk, lookahead)
    else:
        ce, fer = evaluate(model, corpus)
    print(f"ce={ce:.6f} fer={fer:.6f}")
    return 0


def cmd_gradcheck(args) -> int:
    _check_least(("--seed", args.seed, 0), ("--layers", args.layers, 1),
                 ("--frames", args.frames, 1))
    config = RMNConfig(
        input_dim=6,
        num_memory_layers=args.layers,
        num_classes=4,
        wide_dim=8,
        memory_dim=5,
        direction=args.direction,
        shared_weight_form=args.shared_form,
        residual_interval=None if args.no_residual else 2,
        delay_enabled=not args.no_delay,
    )
    rng = np.random.default_rng(args.seed)
    params = init_params(config, args.seed)
    randomize_params(params, args.seed)
    x = rng.uniform(-2.0, 2.0, size=(args.frames, config.input_dim))
    labels = rng.integers(0, config.num_classes, size=args.frames)
    err, unresolved = check_gradients(params, config, x, labels, corrupt=args.corrupt_gradient,
                                      checker=grad_check_resolved)
    print(f"max_rel_error {err:.3e}")
    # entries too small for a central difference to resolve to GRAD_BOUND; not compared
    print(f"unresolved {unresolved} entries below the loss's finite-difference resolution")
    if err < GRAD_BOUND:
        print("gradcheck PASS")
        return 0
    print("gradcheck FAIL")
    return 1


def cmd_params(args) -> int:
    _check_least(("--input-dim", args.input_dim, 1), ("--layers", args.layers, 1),
                 ("--classes", args.classes, 1), ("--wide-dim", args.wide_dim, 1),
                 ("--memory-dim", args.memory_dim, 1))
    if args.compare_lstmp is not None:
        _check_least(*((f"--compare-lstmp {name}", value, 1)
                       for name, value in zip(LSTMP_DIMENSIONS, args.compare_lstmp)))
    config = RMNConfig(
        input_dim=args.input_dim,
        num_memory_layers=args.layers,
        num_classes=args.classes,
        wide_dim=args.wide_dim,
        memory_dim=args.memory_dim,
        direction=args.direction,
        shared_weight_form=args.shared_form,
    )
    n = param_count(config)
    m = None if args.compare_lstmp is None else param_count_lstmp(*args.compare_lstmp)
    print(f"params {n}")
    print(f"params_millions {n / 1e6:.1f}")
    if m is not None:
        print(f"lstmp_params {m}")
        print(f"reduction_percent {100.0 * (m - n) / m:.1f}")
    return 0


def cmd_sweep(args) -> int:
    try:
        layer_list = [int(v) for v in args.layers.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad layer list {args.layers!r}") from None
    if not layer_list:
        raise ConfigError("layer list is empty")
    _check_least(*(("--layers", n, 1) for n in layer_list))
    repeated = sorted({n for n in layer_list if layer_list.count(n) > 1})
    if repeated:
        raise ConfigError(f"layer list {args.layers!r} repeats {', '.join(map(str, repeated))}")
    settings, train_corpus, valid_corpus, train_config, model_configs = _load_experiment(
        args, layer_list)
    os.makedirs(settings["out_dir"], exist_ok=True)
    sweep_path = os.path.join(settings["out_dir"], "sweep.csv")
    rows = []
    for model_config in model_configs:
        model = Model(model_config, init_params(model_config, train_config.seed))
        stats = fit(model, train_corpus, valid_corpus, train_config)
        best = min(s.valid_fer for s in stats)
        rows.append((model_config.num_memory_layers, best))
        print(f"layers={model_config.num_memory_layers} best_valid_fer={best:.4f}")
    with open(sweep_path, "w") as fh:
        fh.write("layers,best_valid_fer\n")
        for layers, best in rows:
            fh.write(f"{layers},{best!r}\n")
    print(f"sweep results in {sweep_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmnlab",
        description="Residual memory network laboratory: synthetic sequence "
        "tasks, training, evaluation and verification probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus archive")
    p.add_argument("--task", required=True, choices=["delayed-recall", "future-recall", "parity"])
    # absent unless given, so that cmd_gen can reject a flag the task ignores
    for name, text in (("classes", "recall tasks: number of symbol classes K"),
                       ("delay", "recall tasks: recall distance in frames"),
                       ("window", "parity: window width")):
        p.add_argument(f"--{name}", type=int, default=argparse.SUPPRESS,
                       help=f"{text} (default {GEN_TASK_FLAGS[name]})")
    p.add_argument("--frames", type=int, default=100, help="frames per utterance")
    p.add_argument("--count", type=int, default=100, help="number of utterances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("out", help="output archive path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model from an experiment config")
    p.add_argument("config", help="key = value experiment file")
    for key in EXPERIMENT_KEYS:
        p.add_argument(f"--{key}", dest=key, default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("checkpoint")
    p.add_argument("corpus")
    p.add_argument(
        "--stream",
        nargs=2,
        type=int,
        metavar=("CHUNK", "LOOKAHEAD"),
        default=None,
        help="bounded-lookahead chunked inference instead of full sequences; LOOKAHEAD "
        "counts model-input rows past a chunk, and as the utterance is spliced first, "
        "a window also reads splice_right raw frames beyond them",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of a tiny random model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--frames", type=int, default=7)
    p.add_argument("--direction", choices=DIRECTIONS, default="uni")
    p.add_argument("--shared-form", choices=SHARED_FORMS, default="diagonal")
    p.add_argument("--no-residual", action="store_true")
    p.add_argument("--no-delay", action="store_true")
    p.add_argument(
        "--corrupt-gradient",
        action="store_true",
        help="testing hook: damage one analytic gradient so the check must fail",
    )
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("params", help="closed-form parameter counts")
    p.add_argument("--input-dim", type=int, required=True)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--wide-dim", type=int, default=RMNConfig.wide_dim)
    p.add_argument("--memory-dim", type=int, default=RMNConfig.memory_dim)
    p.add_argument("--direction", choices=DIRECTIONS, default=RMNConfig.direction)
    p.add_argument("--shared-form", choices=SHARED_FORMS, default=RMNConfig.shared_weight_form)
    p.add_argument(
        "--compare-lstmp",
        nargs=5,
        type=int,
        metavar=LSTMP_DIMENSIONS,
        default=None,
        help="also report a stacked projected-LSTM count and the reduction",
    )
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("sweep", help="train one model per layer count")
    p.add_argument("config")
    p.add_argument("--layers", required=True, help="comma-separated layer counts, e.g. 2,4,6,8")
    for key in EXPERIMENT_KEYS:
        p.add_argument(f"--{key}", dest=key, default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        # a run that overflows goes on to a check that raises NumericError,
        # which prints its one line; numpy's float warnings would come first
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:  # every typed input error is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
