"""Command-line behavior: argument handling, exit codes, file outputs and
the experiment-config loader. Commands run in-process through main()."""

import codecs
import contextlib
import functools
import io
import os
import re
import shutil
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmnlab import cli
from rmnlab.cli import EXPERIMENT_KEYS, ConfigError, load_experiment_config, main
from rmnlab.data import Utterance, gen_delayed_recall, read_archive, write_archive
from rmnlab.model import (
    Model,
    RMNConfig,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
)


def run(*argv):
    return main(list(argv))


# --- gen -----------------------------------------------------------------------


def test_gen_writes_archive(tmp_path, capsys):
    out = tmp_path / "c.arc"
    assert run("gen", "--task", "delayed-recall", "--classes", "4", "--delay", "2",
               "--frames", "12", "--count", "5", "--seed", "3", str(out)) == 0
    said = capsys.readouterr().out
    assert "5 utterances" in said
    corpus = read_archive(out)
    assert len(corpus) == 5
    assert corpus.feature_dim == 4
    assert corpus.num_classes == 5


def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.arc", tmp_path / "b.arc"
    args = ["gen", "--task", "parity", "--window", "3", "--frames", "20",
            "--count", "4", "--seed", "9"]
    assert run(*args, str(a)) == 0
    assert run(*args, str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_future_recall_task(tmp_path):
    out = tmp_path / "f.arc"
    assert run("gen", "--task", "future-recall", "--classes", "3", "--delay", "1",
               "--frames", "8", "--count", "2", str(out)) == 0
    corpus = read_archive(out)
    assert corpus.num_classes == 4


def test_gen_rejects_bad_task(tmp_path):
    assert run("gen", "--task", "nonsense", str(tmp_path / "x.arc")) == 2


def test_gen_rejects_impossible_delay(tmp_path):
    assert run("gen", "--task", "delayed-recall", "--delay", "50", "--frames", "10",
               str(tmp_path / "x.arc")) == 2


@pytest.mark.parametrize("task, flag, value", [
    ("delayed-recall", "--delay", "-3"),
    ("future-recall", "--delay", "-1"),
    ("delayed-recall", "--classes", "0"),
    ("future-recall", "--classes", "-2"),
    ("parity", "--frames", "-1"),
    ("parity", "--frames", "0"),
    ("delayed-recall", "--count", "0"),
    ("parity", "--count", "-1"),
    ("parity", "--classes", "0"),
    ("parity", "--delay", "-5"),
    ("delayed-recall", "--window", "3"),
    ("future-recall", "--window", "0"),
    ("parity", "--seed", "-1"),
])
def test_gen_rejects_out_of_range_argument_by_name(tmp_path, capsys, task, flag, value):
    # numpy's own message ("high <= 0", "negative dimensions ...") or an
    # empty archive that train and eval later reject would not name the flag;
    # a flag the task does not read is rejected whatever its value
    out = tmp_path / "x.arc"
    assert run("gen", "--task", task, flag, value, str(out)) == 2
    ignored = flag in (("--classes", "--delay") if task == "parity" else ("--window",))
    said = f"task {task!r} does not use {flag}" if ignored else f"{flag[2:]} must be >= "
    assert said in capsys.readouterr().err
    assert not out.exists()


# --- params ----------------------------------------------------------------------


def test_params_known_count(capsys):
    assert run("params", "--input-dim", "440", "--layers", "18", "--classes", "4006") == 0
    out = capsys.readouterr().out
    assert "params 10336166" in out
    assert "params_millions 10.3" in out


def test_params_bidirectional_count(capsys):
    assert run("params", "--input-dim", "40", "--layers", "18", "--classes", "4006",
               "--direction", "bi") == 0
    assert "params 9927078" in capsys.readouterr().out


def test_params_lstmp_comparison(capsys):
    assert run("params", "--input-dim", "440", "--layers", "18", "--classes", "4006",
               "--compare-lstmp", "3", "1024", "512", "40", "4006") == 0
    out = capsys.readouterr().out
    assert "lstmp_params 14289830" in out
    assert "reduction_percent 27.7" in out


@pytest.mark.parametrize("lstmp, message", [
    (["0", "1", "1", "1", "1"], "--compare-lstmp LAYERS must be >= 1, got 0"),
    (["3", "1024", "512", "40", "-1"], "--compare-lstmp CLASSES must be >= 1, got -1"),
])
def test_params_bad_lstmp_dimensions_print_nothing(capsys, lstmp, message):
    # the RMN count used to be printed before the LSTMP dimensions were read
    assert run("params", "--input-dim", "440", "--layers", "18", "--classes", "4006",
               "--compare-lstmp", *lstmp) == 2
    said = capsys.readouterr()
    assert said.out == ""
    assert said.err.count("\n") == 1
    assert said.err.startswith("error: ") and message in said.err


@pytest.mark.parametrize("flag", ["--input-dim", "--layers", "--classes", "--wide-dim",
                                  "--memory-dim"])
@pytest.mark.parametrize("value", ["0", "-4"])
def test_params_rejects_out_of_range_argument_by_name(capsys, flag, value):
    # RMNConfig's own message would name its field (input_dim, num_memory_layers)
    argv = {"--input-dim": "440", "--layers": "18", "--classes": "4006", flag: value}
    assert run("params", *(word for pair in argv.items() for word in pair)) == 2
    said = capsys.readouterr()
    assert said.out == ""
    assert said.err == f"error: {flag} must be >= 1, got {value}\n"


def test_params_huge_lstmp_layer_count_is_counted_in_closed_form(capsys):
    # a loop over the layers would take hours here
    assert run("params", "--input-dim", "440", "--layers", "18", "--classes", "4006",
               "--compare-lstmp", "100000000000", "1", "1", "1", "1") == 0
    assert "lstmp_params 1300000000002\n" in capsys.readouterr().out


# --- gradcheck --------------------------------------------------------------------


def test_gradcheck_passes(capsys):
    assert run("gradcheck", "--layers", "2", "--frames", "6") == 0
    assert "gradcheck PASS" in capsys.readouterr().out


def test_gradcheck_bi_full(capsys):
    assert run("gradcheck", "--layers", "3", "--direction", "bi",
               "--shared-form", "full") == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_corrupt_control_fails(capsys):
    assert run("gradcheck", "--corrupt-gradient") == 1
    assert "gradcheck FAIL" in capsys.readouterr().out


def test_gradcheck_counts_entries_below_the_loss_resolution_as_unresolved(capsys):
    # at 40 layers the loss is about 20, so a central difference cannot see
    # a gradient below spacing(20) / 1e-5, about 3.6e-10; one output weight's
    # is 4.5e-12, and compared it read as relative error 1.0
    assert run("gradcheck", "--layers", "40") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("max_rel_error ") and float(out[0].split()[1]) < 1e-4
    assert re.fullmatch(r"unresolved [1-9]\d* entries below the loss's finite-difference resolution",
                        out[1])
    assert out[2] == "gradcheck PASS"


@pytest.mark.parametrize("flag, value", [("--seed", "-2"), ("--frames", "-3"), ("--frames", "0"),
                                         ("--layers", "0"), ("--layers", "-1")])
def test_gradcheck_rejects_out_of_range_argument_by_name(capsys, flag, value):
    # numpy's own message ("expected non-negative integer", "negative
    # dimensions ..."), "empty sequence" or RMNConfig's num_memory_layers
    # would not name the flag
    assert run("gradcheck", flag, value) == 2
    said = capsys.readouterr()
    assert said.out == ""
    assert f"{flag} must be >= " in said.err


def test_gradcheck_corrupt_control_fails_at_depth_too(capsys):
    assert run("gradcheck", "--layers", "40", "--corrupt-gradient") == 1
    assert capsys.readouterr().out.splitlines()[-1] == "gradcheck FAIL"


def run_warning_free(*argv):
    """run(), asserting that numpy warned of nothing on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(*argv)
    assert [str(w.message) for w in caught] == []
    return code


def test_gradcheck_that_overflows_is_one_numeric_failure_line(capsys):
    # ten thousand layers of random weights overflow in the forward pass
    assert run_warning_free("gradcheck", "--layers", "10000") == 1
    said = capsys.readouterr()
    assert said.out == ""
    assert len(said.err.splitlines()) == 1
    assert said.err.startswith("numeric failure: non-finite loss while perturbing ")


# --- experiment config loader -------------------------------------------------------


def write_corpora(tmp_path):
    train, valid = tmp_path / "train.arc", tmp_path / "valid.arc"
    run("gen", "--task", "delayed-recall", "--classes", "3", "--delay", "1",
        "--frames", "10", "--count", "6", "--seed", "1", str(train))
    run("gen", "--task", "delayed-recall", "--classes", "3", "--delay", "1",
        "--frames", "10", "--count", "3", "--seed", "2", str(valid))
    return train, valid


def base_config_text(tmp_path, train, valid, **extra):
    lines = [
        f"train_archive = {train}",
        f"valid_archive = {valid}",
        f"out_dir = {tmp_path / 'run'}",
        "num_memory_layers = 2",
        "wide_dim = 8",
        "memory_dim = 4",
        "max_epochs = 2",
        "truncation_chunk = none   # full-sequence",
        "seed = 0",
    ]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    return "\n".join(lines) + "\n"


def test_config_loader_parses_comments_and_overrides(tmp_path):
    train, valid = write_corpora(tmp_path)
    path = tmp_path / "exp.cfg"
    path.write_text(base_config_text(tmp_path, train, valid))
    settings = load_experiment_config(str(path), {"memory_dim": "16", "delay_enabled": "Off"})
    assert settings["memory_dim"] == 16
    assert settings["delay_enabled"] is False
    assert settings["truncation_chunk"] is None
    assert settings["momentum"] == 0.9  # default fills in


def test_config_loader_rejects_unknown_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("mystery_knob = 3\n")
    with pytest.raises(ConfigError):
        load_experiment_config(str(path), {})


def test_config_loader_rejects_missing_required(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("wide_dim = 8\n")
    with pytest.raises(ConfigError):
        load_experiment_config(str(path), {})


def test_config_loader_skips_a_byte_order_mark(tmp_path):
    train, valid = write_corpora(tmp_path)
    path = tmp_path / "exp.cfg"
    path.write_bytes(codecs.BOM_UTF8 + base_config_text(tmp_path, train, valid).encode())
    settings = load_experiment_config(str(path), {})
    assert settings["train_archive"] == str(train)


def test_config_loader_rejects_non_utf8_bytes_naming_the_line(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"wide_dim = 8\nmemory_dim = \xff4\n")
    with pytest.raises(ConfigError, match=f"{path}:2: not UTF-8"):
        load_experiment_config(str(path), {})


CONFIG_LINES = st.one_of(
    st.binary(max_size=30),
    st.tuples(st.sampled_from(sorted(EXPERIMENT_KEYS)), st.text(max_size=12)).map(
        lambda kv: f"{kv[0]} = {kv[1]}".encode()),
)


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(CONFIG_LINES, max_size=12),
    overrides=st.dictionaries(st.sampled_from(sorted(EXPERIMENT_KEYS)) | st.text(max_size=8),
                              st.text(max_size=12), max_size=4),
)
def test_fuzzed_config_loads_or_raises_config_error(tmp_path_factory, lines, overrides):
    # keys repeat freely, so later lines and overrides redefine earlier ones
    path = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    path.write_bytes(b"\n".join(lines))
    try:
        settings = load_experiment_config(str(path), overrides)
    except ConfigError:
        return
    assert settings.keys() == EXPERIMENT_KEYS.keys()


@pytest.mark.parametrize("key, value", [("momentum", "high"), ("delay_enabled", "maybe")])
def test_config_loader_rejects_bad_value(tmp_path, capsys, key, value):
    train, valid = write_corpora(tmp_path)
    path = tmp_path / "exp.cfg"
    path.write_text(base_config_text(tmp_path, train, valid, **{key: value}))
    with pytest.raises(ConfigError, match=f"bad value for {key!r}: {value!r}"):
        load_experiment_config(str(path), {})
    assert_one_line_usage_error(capsys, "train", str(path), mentions=f"bad value for {key!r}")
    assert not (tmp_path / "run").exists()


# --- train ---------------------------------------------------------------------------


def test_train_writes_metrics_and_checkpoints(tmp_path, capsys):
    train, valid = write_corpora(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(base_config_text(tmp_path, train, valid))
    assert run("train", str(cfg)) == 0

    run_dir = tmp_path / "run"
    metrics = (run_dir / "metrics.csv").read_text().strip().split("\n")
    assert metrics[0] == "epoch,lr,train_ce,valid_ce,train_fer,valid_fer,wall_seconds"
    assert len(metrics) == 3  # header + 2 epochs
    assert (run_dir / "epoch_001.ckpt").exists()
    assert (run_dir / "epoch_002.ckpt").exists()
    assert (run_dir / "final.ckpt").exists()


def test_train_zero_lr_smoke_leaves_parameters_at_init(tmp_path):
    train, valid = write_corpora(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(base_config_text(tmp_path, train, valid, base_lr="0", peak_lr="0"))
    assert run("train", str(cfg)) == 0

    model = load_checkpoint(tmp_path / "run" / "final.ckpt")
    fresh = init_params(model.config, 0)
    for trained, init in zip(model.params.parameters(), fresh.parameters()):
        assert np.array_equal(trained.value, init.value)


def test_train_cli_override_beats_file(tmp_path):
    train, valid = write_corpora(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(base_config_text(tmp_path, train, valid))
    assert run("train", str(cfg), "--max_epochs", "1") == 0
    metrics = (tmp_path / "run" / "metrics.csv").read_text().strip().split("\n")
    assert len(metrics) == 2


def test_train_missing_archive_is_usage_error(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "train_archive = /nonexistent.arc\nvalid_archive = /nonexistent.arc\n"
        f"out_dir = {tmp_path / 'run'}\nnum_memory_layers = 2\n"
    )
    assert run("train", str(cfg)) == 2


def test_train_determinism_across_runs(tmp_path):
    train, valid = write_corpora(tmp_path)
    outputs = []
    for tag in ("one", "two"):
        cfg = tmp_path / f"exp_{tag}.cfg"
        out_dir = tmp_path / f"run_{tag}"
        cfg.write_text(
            base_config_text(tmp_path, train, valid).replace(
                f"out_dir = {tmp_path / 'run'}", f"out_dir = {out_dir}"
            )
        )
        assert run("train", str(cfg)) == 0
        rows = (out_dir / "metrics.csv").read_text().strip().split("\n")
        # identical up to wall-clock time
        outputs.append([",".join(r.split(",")[:-1]) for r in rows])
    assert outputs[0] == outputs[1]
    a = (tmp_path / "run_one" / "final.ckpt").read_bytes()
    b = (tmp_path / "run_two" / "final.ckpt").read_bytes()
    assert a == b


# --- eval ------------------------------------------------------------------------------


def trained_checkpoint(tmp_path):
    train, valid = write_corpora(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(base_config_text(tmp_path, train, valid))
    run("train", str(cfg))
    return tmp_path / "run" / "final.ckpt", valid


def test_eval_prints_ce_and_fer(tmp_path, capsys):
    ckpt, valid = trained_checkpoint(tmp_path)
    capsys.readouterr()
    assert run("eval", str(ckpt), str(valid)) == 0
    line = capsys.readouterr().out.strip().split("\n")[-1]
    assert line.startswith("ce=")
    parts = dict(kv.split("=") for kv in line.split())
    assert 0.0 <= float(parts["fer"]) <= 1.0
    assert float(parts["ce"]) > 0.0


def test_eval_streaming_flag(tmp_path, capsys):
    ckpt, valid = trained_checkpoint(tmp_path)
    capsys.readouterr()
    assert run("eval", str(ckpt), str(valid), "--stream", "4", "3") == 0
    assert "ce=" in capsys.readouterr().out


def test_eval_dimension_mismatch_is_usage_error(tmp_path, capsys):
    ckpt, _ = trained_checkpoint(tmp_path)
    other = tmp_path / "other.arc"
    run("gen", "--task", "parity", "--frames", "10", "--count", "2", str(other))
    capsys.readouterr()
    assert run("eval", str(ckpt), str(other)) == 2


def test_eval_missing_checkpoint(tmp_path):
    train, _ = write_corpora(tmp_path)
    assert run("eval", str(tmp_path / "nope.ckpt"), str(train)) == 2


def assert_one_line_usage_error(capsys, *argv, mentions):
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and mentions in err


def test_eval_truncated_checkpoint_is_usage_error(tmp_path, capsys):
    ckpt, valid = trained_checkpoint(tmp_path)
    text = ckpt.read_text()
    ckpt.write_text("".join(text.splitlines(keepends=True)[:-3]))
    assert_one_line_usage_error(capsys, "eval", str(ckpt), str(valid), mentions=str(ckpt))
    # a header declaring more values than the file can hold is refused
    # before the parameters are allocated
    for old, new in (("wide_dim 8\n", "wide_dim 100000000000\n"),
                     ("num_memory_layers 2\n", "num_memory_layers 300000000\n")):
        assert old in text
        ckpt.write_text(text.replace(old, new))
        assert_one_line_usage_error(capsys, "eval", str(ckpt), str(valid),
                                    mentions=f"{ckpt}: header declares")


def test_eval_checkpoint_missing_header_key_is_usage_error(tmp_path, capsys):
    # an unknown or a repeated header key is refused the same way
    ckpt, valid = trained_checkpoint(tmp_path)
    text = ckpt.read_text()
    input_dim = next(ln for ln in text.splitlines(keepends=True) if ln.startswith("input_dim "))
    for damaged, mentions in [
        (text.replace("splice_right 0\n", ""), "splice_right"),
        (text.replace("splice_right 0\n", "splice_right 0\nbogus_key 7\n"),
         "unknown checkpoint header key 'bogus_key'"),
        (text.replace(input_dim, input_dim * 2), "repeated checkpoint header key 'input_dim'"),
        (text.replace(input_dim, "input_dim 1e3\n"), f"{ckpt}: header key 'input_dim': "),
    ]:
        ckpt.write_text(damaged)
        assert_one_line_usage_error(capsys, "eval", str(ckpt), str(valid), mentions=mentions)


def test_eval_non_finite_features_is_usage_error(tmp_path, capsys):
    ckpt, valid = trained_checkpoint(tmp_path)
    corpus = read_archive(valid)
    corpus.utterances[1].features[2, 0] = np.nan
    write_archive(corpus, valid)
    assert_one_line_usage_error(capsys, "eval", str(ckpt), str(valid), mentions="non-finite")


def test_eval_infinite_feature_is_usage_error_naming_the_line(tmp_path, capsys):
    ckpt, valid = trained_checkpoint(tmp_path)
    corpus = read_archive(valid)
    corpus.utterances[0].features[3, 1] = -np.inf
    write_archive(corpus, valid)
    # header on line 1, feature rows from line 2: row 3 sits on line 5
    assert_one_line_usage_error(capsys, "eval", str(ckpt), str(valid), mentions="line 5: non-finite")


def test_eval_non_finite_checkpoint_is_usage_error(tmp_path, capsys):
    ckpt, valid = trained_checkpoint(tmp_path)
    lines = ckpt.read_text().splitlines(keepends=True)
    row = next(i for i, ln in enumerate(lines) if ln.startswith("param layer2_w")) + 1
    lines[row] = "nan" + lines[row][lines[row].index(" "):]
    ckpt.write_text("".join(lines))
    assert_one_line_usage_error(capsys, "eval", str(ckpt), str(valid),
                                mentions=f"{ckpt}: parameter 'layer2_w' row 0: non-finite value")


@pytest.mark.parametrize("damage", ["blank input_b row", "appended junk"])
def test_eval_damaged_checkpoint_is_one_line_usage_error(tmp_path, capsys, damage):
    ckpt, valid = trained_checkpoint(tmp_path)
    lines = ckpt.read_text().splitlines(keepends=True)
    if damage == "blank input_b row":
        lines[next(i for i, ln in enumerate(lines) if ln.startswith("param input_b")) + 1] = "\n"
        mentions = "parameter 'input_b' row 0: blank row"
    else:
        lines.append("junk\n")
        mentions = "content after the last parameter"
    ckpt.write_text("".join(lines))
    assert_one_line_usage_error(capsys, "eval", str(ckpt), str(valid), mentions=f"{ckpt}: {mentions}")


@pytest.mark.parametrize("stream, message", [
    (["0", "1"], "--stream CHUNK must be >= 1, got 0"),
    (["-2", "0"], "--stream CHUNK must be >= 1, got -2"),
    (["3", "-1"], "--stream LOOKAHEAD must be >= 0, got -1"),
])
def test_eval_rejects_out_of_range_stream_argument_by_name(tmp_path, capsys, stream, message):
    # evaluate_streaming's own message would name chunk_size or lookahead
    for name in ("model.ckpt", "valid.arc"):
        (tmp_path / name).write_bytes(e2e_base_files()[name])
    assert run("eval", str(tmp_path / "model.ckpt"), str(tmp_path / "valid.arc"),
               "--stream", *stream) == 2
    said = capsys.readouterr()
    assert said.out == ""
    assert said.err == f"error: {message}\n"


@pytest.mark.parametrize("stream", [[], ["--stream", "2", "1"]])
def test_eval_of_huge_weights_is_one_numeric_failure_line(tmp_path, capsys, stream):
    # finite values the reader accepts, whose products overflow
    ckpt, valid = trained_checkpoint(tmp_path)
    model = load_checkpoint(ckpt)
    model.params.input_w.value[...] = 1e300
    model.params.out2_w.value[...] = 1e300
    save_checkpoint(model, ckpt)
    first = read_archive(valid).utterances[0].id
    capsys.readouterr()
    assert run_warning_free("eval", str(ckpt), str(valid), *stream) == 1
    said = capsys.readouterr()
    assert said.out == ""
    assert said.err == f"numeric failure: non-finite loss for utterance {first!r}\n"


@pytest.mark.parametrize("stream", [[], ["--stream", "1", "0"]])
def test_eval_zero_frame_utterance_is_usage_error(tmp_path, capsys, stream):
    ckpt, valid = trained_checkpoint(tmp_path)
    corpus = read_archive(valid)
    corpus.utterances[1] = Utterance("silent", np.zeros((0, corpus.feature_dim)),
                                     np.zeros(0, dtype=np.int64))
    write_archive(corpus, valid)
    assert_one_line_usage_error(capsys, "eval", str(ckpt), str(valid), *stream,
                                mentions="'silent' has no frames")


def test_train_unlabeled_utterance_is_usage_error(tmp_path, capsys):
    train, valid = write_corpora(tmp_path)
    corpus = read_archive(train)
    corpus.utterances[0].labels = None
    write_archive(corpus, train)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(base_config_text(tmp_path, train, valid))
    assert_one_line_usage_error(capsys, "train", str(cfg), mentions="no labels")
    assert not (tmp_path / "run").exists()


def test_train_rejects_unusable_schedule(tmp_path, capsys):
    train, valid = write_corpora(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(base_config_text(tmp_path, train, valid))
    assert_one_line_usage_error(capsys, "train", str(cfg), "--ramp_epochs", "0", mentions="ramp_epochs")
    assert_one_line_usage_error(capsys, "train", str(cfg), "--peak_lr", "-1", mentions="peak_lr")
    assert_one_line_usage_error(capsys, "train", str(cfg), "--base_lr", "0.5", "--peak_lr", "0.4",
                                mentions="peak_lr")


@pytest.mark.parametrize("key, value", [
    ("base_lr", "nan"), ("l2", "nan"), ("l2", "inf"), ("peak_lr", "inf"),
])
def test_train_rejects_non_finite_rate_before_writing(tmp_path, capsys, key, value):
    # a non-finite rate or decay would only show as a numeric failure at
    # the first step, after out_dir was created
    train, valid = write_corpora(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(base_config_text(tmp_path, train, valid))
    assert_one_line_usage_error(capsys, "train", str(cfg), f"--{key}", value,
                                mentions=f"{key} must be finite")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("message", ["Unable to allocate 745. GiB for an array", ""])
def test_train_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, message):
    # the failure is raised, not provoked: an allocation this large is refused
    # by some hosts and granted by others
    train, valid = write_corpora(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(base_config_text(tmp_path, train, valid))

    def no_memory(config, seed):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "init_params", no_memory)
    capsys.readouterr()
    assert run("train", str(cfg)) == 1
    said = capsys.readouterr()
    assert said.out == ""
    assert said.err == f"error: {message or 'out of memory'}\n"


def diverging_config(tmp_path, lr, **extra):
    # the criterion-10 corpora and model at a rate far too large to train at
    train, valid = tmp_path / "train.arc", tmp_path / "valid.arc"
    write_archive(gen_delayed_recall(3, 1, 12, 8, seed=31), train)
    write_archive(gen_delayed_recall(3, 1, 12, 4, seed=32), valid)
    cfg = tmp_path / "exp.cfg"
    lines = [f"train_archive = {train}", f"valid_archive = {valid}",
             f"out_dir = {tmp_path / 'run'}", "num_memory_layers = 2", "wide_dim = 8",
             "memory_dim = 4", "max_epochs = 3", "seed = 5", f"base_lr = {lr}", f"peak_lr = {lr}"]
    cfg.write_text("\n".join(lines + [f"{k} = {v}" for k, v in extra.items()]) + "\n")
    return cfg


@pytest.mark.parametrize("argv", [["train"], ["sweep", "--layers", "2"]])
def test_a_diverging_run_reports_one_numeric_failure_line(tmp_path, capsys, argv):
    # the second step's forward pass overflows before the first epoch ends,
    # a step before sgd_step meets the non-finite update it reports
    cfg = diverging_config(tmp_path, "1e5", max_utts_per_batch=1)
    capsys.readouterr()
    assert run(argv[0], str(cfg), *argv[1:]) == 1
    said = capsys.readouterr()
    assert said.out == ""
    assert len(said.err.splitlines()) == 1
    assert said.err.startswith("numeric failure: non-finite update for ")


def test_a_non_finite_epoch_loss_is_a_numeric_failure(tmp_path, capsys):
    # every update stays finite, but the third epoch's logits overflow and
    # its losses are NaN: no row is written for it, and the run exits 1
    cfg = diverging_config(tmp_path, "1e8")
    capsys.readouterr()
    assert run("train", str(cfg)) == 1
    said = capsys.readouterr()
    assert [line.split(":")[0] for line in said.out.splitlines()] == ["epoch 1", "epoch 2"]
    assert said.err == ("numeric failure: non-finite loss for utterance 'utt00000' "
                        "of the training set after epoch 3\n")
    assert len((tmp_path / "run" / "metrics.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("argv", [["train"], ["sweep", "--layers", "2,300000000"]])
def test_a_model_too_large_for_memory_is_refused_before_it_is_built(tmp_path, capsys, argv):
    # building its 300 M layers would run for an hour before any MemoryError
    train, valid = write_corpora(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(base_config_text(tmp_path, train, valid)
                   .replace("num_memory_layers = 2", "num_memory_layers = 300000000"))
    corpus = read_archive(train)
    count = param_count(RMNConfig(input_dim=corpus.feature_dim, num_memory_layers=300000000,
                                  num_classes=corpus.num_classes, wide_dim=8, memory_dim=4))
    started = time.perf_counter()
    assert_one_line_usage_error(capsys, argv[0], str(cfg), *argv[1:],
                                mentions=f"a model of {count} parameters")
    assert time.perf_counter() - started < 1.0
    assert not (tmp_path / "run").exists()


# --- sweep ------------------------------------------------------------------------------


def test_sweep_writes_csv(tmp_path, capsys):
    train, valid = write_corpora(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(base_config_text(tmp_path, train, valid, max_epochs="1"))
    assert run("sweep", str(cfg), "--layers", "1,2") == 0
    rows = (tmp_path / "run" / "sweep.csv").read_text().strip().split("\n")
    assert rows[0] == "layers,best_valid_fer"
    assert len(rows) == 3
    assert rows[1].startswith("1,")
    assert rows[2].startswith("2,")


def test_sweep_runs_without_num_memory_layers(tmp_path):
    # --layers sets the depth of every sweep run
    train, valid = write_corpora(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(base_config_text(tmp_path, train, valid, max_epochs="1")
                   .replace("num_memory_layers = 2\n", ""))
    assert run("sweep", str(cfg), "--layers", "1,2") == 0
    rows = (tmp_path / "run" / "sweep.csv").read_text().strip().split("\n")
    assert [r.split(",")[0] for r in rows] == ["layers", "1", "2"]


def test_train_without_num_memory_layers_is_usage_error(tmp_path, capsys):
    train, valid = write_corpora(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(base_config_text(tmp_path, train, valid).replace("num_memory_layers = 2\n", ""))
    assert_one_line_usage_error(capsys, "train", str(cfg),
                                mentions="missing required key 'num_memory_layers'")
    assert not (tmp_path / "run").exists()


def test_sweep_no_delay_variant(tmp_path):
    train, valid = write_corpora(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(base_config_text(tmp_path, train, valid, max_epochs="1"))
    assert run("sweep", str(cfg), "--layers", "2", "--delay_enabled", "off") == 0
    rows = (tmp_path / "run" / "sweep.csv").read_text().strip().split("\n")
    assert len(rows) == 2 and rows[1].startswith("2,")


@pytest.mark.parametrize("layers, extra, unlabeled, mentions", [
    ("0", [], False, "--layers must be >= 1, got 0"),
    ("2,3", ["--l2", "nan"], False, "l2 must be finite"),
    ("2", [], True, "no labels"),
    ("2,2", [], False, "repeats 2"),
    ("1,3,1,2,3", [], False, "repeats 1, 3"),
    ("2", ["--max_epochs", "0"], False, "max_epochs must be >= 1"),
    ("0,2", [], False, "--layers must be >= 1, got 0"),
    ("2,-3", [], False, "--layers must be >= 1, got -3"),
])
def test_sweep_usage_error_writes_nothing(tmp_path, capsys, layers, extra, unlabeled, mentions):
    train, valid = write_corpora(tmp_path)
    if unlabeled:
        corpus = read_archive(train)
        corpus.utterances[0].labels = None
        write_archive(corpus, train)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(base_config_text(tmp_path, train, valid))
    assert_one_line_usage_error(capsys, "sweep", str(cfg), "--layers", layers, *extra,
                                mentions=mentions)
    assert not (tmp_path / "run").exists()


def test_sweep_rejects_empty_layer_list(tmp_path):
    train, valid = write_corpora(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(base_config_text(tmp_path, train, valid))
    assert run("sweep", str(cfg), "--layers", ",") == 2
    assert run("sweep", str(cfg), "--layers", "2,x") == 2


# --- top-level -----------------------------------------------------------------------


def test_unknown_subcommand_is_usage_error():
    assert run("frobnicate") == 2


def test_no_arguments_is_usage_error():
    assert run() == 2


# --- end-to-end property ----------------------------------------------------------------
#
# Each example runs `main` in a fresh working directory holding a tiny
# training and validation archive, a checkpoint of a model that fits them,
# an experiment config and an empty directory `sub`. Each file may be cut,
# have a byte replaced or a token inserted, have a header or value edited,
# be replaced by a directory or be missing. Every path is relative and no
# mutation writes a slash, so whatever a run writes stays in that directory.

E2E_CONFIG = b"""train_archive = train.arc
valid_archive = valid.arc
out_dir = run
num_memory_layers = 2
wide_dim = 4
memory_dim = 3
max_epochs = 2
truncation_chunk = 4
seed = 0
"""

# edits that keep a file's layout; the first two checkpoint edits declare
# far more values than the file holds, the seventh blanks input_b's one row
# and the last moves every nonzero weight 10**300 away from zero, so that
# eval overflows
E2E_EDITS = {
    "model.ckpt": [(b"wide_dim 4\n", b"wide_dim 100000000000\n"),
                   (b"num_memory_layers 2\n", b"num_memory_layers 300000000\n"),
                   (b"direction uni", b"direction bi"), (b"num_classes 4", b"num_classes 3"),
                   (b"param layer1_w", b"param layer2_w"), (b"input_dim 3", b"input_dim 1"),
                   (b"param input_b 1 4\n0 0 0 0\n", b"param input_b 1 4\n\n"),
                   (b"0.", b"1" + b"0" * 300 + b".")],
    "exp.cfg": [(b"max_epochs = 2", b"max_epochs = 0"), (b"seed = 0", b"seed = -1"),
                (b"wide_dim = 4", b"wide_dim = nan"), (b"out_dir = run", b"out_dir = sub"),
                (b"valid.arc", b"train.arc"), (b"truncation_chunk = 4", b"truncation_chunk = 0"),
                (b"num_memory_layers = 2", b"num_memory_layers = 300000000")],
    "train.arc": [(b"[ 4", b"[ 0"), (b"labels utt00001 ", b"labels utt00000 "), (b" 1 ", b" 9 ")],
    "valid.arc": [(b"[ 4", b"[ 9"), (b" 0 ", b" inf "), (b"utt00001", b"utt00000")],
}
E2E_INSERTS = [b"0", b"-", b"nan", b"inf", b"junk", b"\n", b" ", b"=", b"#", b"[", b"]", b"\xff"]
E2E_BYTES = b"019- x\n=#\xff"


@functools.cache
def e2e_base_files() -> dict[str, bytes]:
    """The pristine files; their model is input 3, 4 classes, 2 layers."""
    corpora = {"train.arc": gen_delayed_recall(3, 1, 10, 4, seed=1),
               "valid.arc": gen_delayed_recall(3, 1, 8, 2, seed=2)}
    config = RMNConfig(input_dim=3, num_memory_layers=2, num_classes=4, wide_dim=4, memory_dim=3)
    with tempfile.TemporaryDirectory() as d:
        files = {"exp.cfg": E2E_CONFIG}
        for name, corpus in corpora.items():
            write_archive(corpus, os.path.join(d, name))
        save_checkpoint(Model(config, init_params(config, 0)), os.path.join(d, "model.ckpt"))
        for name in ("train.arc", "valid.arc", "model.ckpt"):
            with open(os.path.join(d, name), "rb") as fh:
                files[name] = fh.read()
    return files


# half the files drawn are pristine copies, so that runs get past them
E2E_VARIANT = st.just(("copy",)) | st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 10**5)),
    st.tuples(st.just("byte"), st.integers(0, 10**5), st.sampled_from(E2E_BYTES)),
    st.tuples(st.just("insert"), st.integers(0, 10**5), st.sampled_from(E2E_INSERTS)),
    st.tuples(st.just("edit"), st.integers(0, 7)),
    st.just(("dir",)),
    st.just(("missing",)),
)


def e2e_files(changed=None):
    """File variants: every file a pristine copy except those in `changed`."""
    return {**dict.fromkeys(E2E_EDITS, ("copy",)), **(changed or {})}


def e2e_materialize(work: str, name: str, variant: tuple) -> None:
    path = os.path.join(work, name)
    kind, data = variant[0], e2e_base_files()[name]
    if kind == "dir":
        os.mkdir(path)
        return
    if kind == "missing":
        return
    if kind == "cut":
        data = data[: variant[1] % (len(data) + 1)]
    elif kind == "byte":
        at = variant[1] % len(data)
        data = data[:at] + bytes([variant[2]]) + data[at + 1 :]
    elif kind == "insert":
        at = variant[1] % (len(data) + 1)
        data = data[:at] + variant[2] + data[at:]
    elif kind == "edit":
        edits = E2E_EDITS[name]
        data = data.replace(*edits[variant[1] % len(edits)])
    with open(path, "wb") as fh:
        fh.write(data)


def e2e_tree(root: str) -> dict:
    """Every directory and file under root, files with their bytes."""
    found = {}
    for here, dirs, names in os.walk(root):
        for d in dirs:
            found[os.path.relpath(os.path.join(here, d), root)] = None
        for n in names:
            with open(os.path.join(here, n), "rb") as fh:
                found[os.path.relpath(os.path.join(here, n), root)] = fh.read()
    return found


def e2e_paths(preferred: str):
    # the path a run needs two times in three
    return st.sampled_from([preferred] * 16 + ["train.arc", "valid.arc", "model.ckpt", "exp.cfg",
                                               "sub", "run", "missing/x.arc", ""])


# small integers half the time, else edge values and junk
E2E_NUMBERS = st.integers(-2, 12).map(str) | st.sampled_from(
    ["-1", "0", "nan", "inf", "-inf", "junk", "", "1.5", "1e999", "none"])
E2E_WORDS = st.sampled_from(["none", "uni", "bi", "diagonal", "full", "off", "on",
                             "ramp_then_halve", "constant_then_halve"])


def e2e_one(values):
    return values.map(lambda v: [v])


E2E_PATH_KEYS = {"train_archive": "train.arc", "valid_archive": "valid.arc", "out_dir": "sub"}
E2E_OVERRIDES = {
    f"--{key}": e2e_one(e2e_paths(E2E_PATH_KEYS[key]) if key in E2E_PATH_KEYS
                        else E2E_NUMBERS | E2E_WORDS)
    for key in EXPERIMENT_KEYS
}


@st.composite
def e2e_argv(draw):
    """argv for one of the six subcommands; flags may repeat, and now and
    then a stray token joins them."""

    def flags(options: dict) -> list[str]:
        argv = []
        for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=4)):
            argv += [flag, *draw(options[flag])]
        return argv

    command = draw(st.sampled_from(["gen", "train", "eval", "gradcheck", "params", "sweep"]))
    if command == "gen":
        sizes = E2E_NUMBERS | st.integers(1, 50).map(str)
        argv = ["gen", "--task", draw(st.sampled_from(["delayed-recall", "future-recall", "parity",
                                                        "junk"])),
                *flags({"--classes": e2e_one(E2E_NUMBERS), "--delay": e2e_one(E2E_NUMBERS),
                        "--window": e2e_one(E2E_NUMBERS), "--frames": e2e_one(sizes),
                        "--count": e2e_one(sizes), "--seed": e2e_one(E2E_NUMBERS)}),
                draw(e2e_paths("out.arc"))]
    elif command in ("train", "sweep"):
        argv = [command, draw(e2e_paths("exp.cfg"))]
        if command == "sweep":
            argv += ["--layers", draw(st.sampled_from(["2"] * 4 + ["1,2"] * 4 + [
                "2,2", "0", "-1", "", ",", "x", "1,,2", "3,1", "nan"]))]
        argv += flags(E2E_OVERRIDES)
    elif command == "eval":
        stream = st.sampled_from([2, 2, 2, 1, 3]).flatmap(
            lambda n: st.lists(E2E_NUMBERS, min_size=n, max_size=n))
        argv = ["eval", draw(e2e_paths("model.ckpt")), draw(e2e_paths("valid.arc")),
                *flags({"--stream": stream})]
    elif command == "gradcheck":
        argv = ["gradcheck", *flags({
            "--seed": e2e_one(E2E_NUMBERS),
            "--layers": e2e_one(st.sampled_from(["-1", "0", "1", "2", "3", "junk"])),
            "--frames": e2e_one(st.sampled_from(["-1", "0", "1", "5", "nan", "junk"])),
            "--direction": e2e_one(st.sampled_from(["uni", "bi", "junk"])),
            "--shared-form": e2e_one(st.sampled_from(["diagonal", "full", "junk"])),
            "--no-residual": st.just([]), "--no-delay": st.just([]),
            "--corrupt-gradient": st.just([]),
        })]
    else:
        dims = E2E_NUMBERS | st.just("100000000000")
        argv = ["params", "--input-dim", draw(dims), "--layers", draw(dims),
                "--classes", draw(dims), *flags({
                    "--wide-dim": e2e_one(dims), "--memory-dim": e2e_one(dims),
                    "--direction": e2e_one(E2E_WORDS), "--shared-form": e2e_one(E2E_WORDS),
                    "--compare-lstmp": st.lists(dims, min_size=5, max_size=5),
                })]
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(argv)))
        argv.insert(at, draw(st.sampled_from(["--bogus", "junk", "-", "--", "--help"])))
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=e2e_argv(), files=st.just(e2e_files()) | st.fixed_dictionaries(
    {name: E2E_VARIANT for name in E2E_EDITS}))
@example(argv=["sweep", "exp.cfg", "--layers", "2", "--max_epochs", "0"], files=e2e_files())
@example(argv=["train", "exp.cfg", "--max_epochs", "0"], files=e2e_files())
@example(argv=["train", "exp.cfg", "--seed", "-1"], files=e2e_files())
@example(argv=["train", "exp.cfg"], files=e2e_files({"exp.cfg": ("edit", 6)}))
@example(argv=["eval", "model.ckpt", "valid.arc"], files=e2e_files({"model.ckpt": ("edit", 0)}))
@example(argv=["eval", "model.ckpt", "valid.arc"], files=e2e_files({"model.ckpt": ("edit", 1)}))
@example(argv=["eval", "model.ckpt", "valid.arc"], files=e2e_files({"model.ckpt": ("edit", 6)}))
@example(argv=["eval", "model.ckpt", "valid.arc"], files=e2e_files({"model.ckpt": ("edit", 7)}))
@example(argv=["eval", "model.ckpt", "valid.arc", "--stream", "2", "1"],
         files=e2e_files({"model.ckpt": ("edit", 7)}))
@example(argv=["params", "--input-dim", "440", "--layers", "18", "--classes", "4006",
               "--compare-lstmp", "0", "1", "1", "1", "1"], files=e2e_files())
@example(argv=["sweep", "exp.cfg", "--layers", "2,2"], files=e2e_files())
@example(argv=["train", "exp.cfg"], files=e2e_files())
@example(argv=["eval", "model.ckpt", "valid.arc", "--stream", "3", "1"], files=e2e_files())
def test_main_exits_0_1_or_2_and_a_usage_error_writes_nothing(argv, files):
    # main never raises; exit 2 prints one `error:` line or argparse's usage
    # to stderr, nothing to stdout, and leaves the directory as it was; exit
    # 1 prints at most one line to stderr, and an eval that exits 0 no NaN
    home = os.getcwd()
    work = tempfile.mkdtemp(prefix="rmnlab-e2e-")
    try:
        for name, variant in files.items():
            e2e_materialize(work, name, variant)
        os.mkdir(os.path.join(work, "sub"))
        before = e2e_tree(work)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(home)
        assert code in (0, 1, 2)
        if code == 0 and "eval" in argv:
            assert "nan" not in out.getvalue()
        if code == 1:
            assert err.getvalue().count("\n") <= 1, err.getvalue()
        if code == 2:
            said = err.getvalue()
            assert out.getvalue() == ""
            assert said.startswith("usage: ") or (said.count("\n") == 1
                                                  and said.startswith("error: ")), said
            assert e2e_tree(work) == before
    finally:
        shutil.rmtree(work)
