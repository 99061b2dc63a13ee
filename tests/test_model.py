"""Architecture-level checks: a hand-computed forward oracle, equivalence
against the naive untied reference implementation, finite-difference
gradient verification, structural invariants (causality, residual
identity, zero-init equivalence), analysis tools and checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmnlab.model import (
    ConsistencyError,
    InputError,
    Model,
    RMNConfig,
    WindowError,
    backward,
    check_gradients,
    delay_schedule,
    delay_span,
    forward,
    init_params,
    load_checkpoint,
    model_input,
    param_count,
    param_count_lstmp,
    probe_receptive_field,
    randomize_params,
    receptive_field,
    save_checkpoint,
    shift_rows,
    streaming_forward,
)
from rmnlab.numerics import DimensionError, softmax_xent

from reference_model import ref_backward, ref_forward

RNG = np.random.default_rng(123)


def tiny_config(**kw):
    base = dict(
        input_dim=6,
        num_memory_layers=3,
        num_classes=4,
        wide_dim=8,
        memory_dim=5,
        residual_interval=2,
    )
    base.update(kw)
    return RMNConfig(**base)


def ready_params(config, seed=17):
    params = init_params(config, 0)
    randomize_params(params, seed)
    return params


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return float((np.abs(a - b) / denom).max())


ALL_VARIANTS = [
    dict(direction="uni", shared_weight_form="diagonal"),
    dict(direction="uni", shared_weight_form="full"),
    dict(direction="bi", shared_weight_form="diagonal"),
    dict(direction="bi", shared_weight_form="full"),
]


# --- config validation -------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        tiny_config(num_memory_layers=0)
    with pytest.raises(ValueError):
        tiny_config(direction="both")
    with pytest.raises(ValueError):
        tiny_config(shared_weight_form="banded")
    with pytest.raises(ValueError):
        tiny_config(residual_interval=0)
    with pytest.raises(ValueError):
        tiny_config(direction="bi", delay_enabled=False)


# --- delay schedule ----------------------------------------------------------


def test_delay_schedule_deepest_first():
    assert delay_schedule(tiny_config(num_memory_layers=5)) == [5, 4, 3, 2, 1]
    assert delay_schedule(tiny_config(num_memory_layers=5, direction="bi")) == [5, 4, 3, 2, 1]
    assert delay_schedule(tiny_config(num_memory_layers=1)) == [1]
    assert delay_schedule(tiny_config(delay_enabled=False)) == []


def test_delay_span_closed_form():
    for l_count in (1, 2, 3, 5, 18):
        cfg = tiny_config(num_memory_layers=l_count)
        assert delay_span(cfg) == l_count * (l_count + 1) // 2
    assert delay_span(tiny_config(delay_enabled=False)) == 0


# --- shift helper ------------------------------------------------------------


def test_shift_rows_both_directions():
    x = np.arange(8.0).reshape(4, 2)
    assert np.array_equal(shift_rows(x, 1)[0], [0.0, 0.0])
    assert np.array_equal(shift_rows(x, 1)[1:], x[:-1])
    assert np.array_equal(shift_rows(x, -2)[:2], x[2:])
    assert np.array_equal(shift_rows(x, -2)[2:], np.zeros((2, 2)))
    assert np.array_equal(shift_rows(x, 0), x)


def test_shift_rows_beyond_length_is_all_zero():
    x = np.ones((3, 2))
    assert np.array_equal(shift_rows(x, 3), np.zeros((3, 2)))
    assert np.array_equal(shift_rows(x, -7), np.zeros((3, 2)))


# --- hand-computed scalar oracle --------------------------------------------

# One-unit network, two memory layers, all affine weights 1 and biases 0,
# diagonal shared transform 0.5, delays (2, 1), input 1,2,3,4:
#   v0   = [1, 2, 3, 4]
#   pre1 = v0;  z1 = pre1 + 0.5*shift2(pre1) = [1, 2, 3.5, 5]
#   pre2 = z1;  z2 = pre2 + 0.5*shift1(pre2) = [1, 2.5, 4.5, 6.75]
# classifier [[1, -1]] turns that into two mirrored logit columns.


def test_forward_matches_hand_computed_sequence():
    cfg = RMNConfig(
        input_dim=1,
        num_memory_layers=2,
        num_classes=2,
        wide_dim=1,
        memory_dim=1,
        residual_interval=None,
    )
    params = init_params(cfg, 0)
    for p in (params.input_w, params.proj_w, params.layer_w[0], params.layer_w[1], params.out1_w):
        p.value[...] = 1.0
    params.shared_past.value[...] = 0.5
    params.out2_w.value[...] = [[1.0, -1.0]]

    _, logits = forward(params, cfg, np.array([[1.0], [2.0], [3.0], [4.0]]))
    expect = np.array([[1.0, -1.0], [2.5, -2.5], [4.5, -4.5], [6.75, -6.75]])
    assert np.array_equal(logits, expect)


# --- equivalence with the naive reference ------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_forward_matches_reference(variant):
    cfg = tiny_config(**variant)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (11, cfg.input_dim))
    _, logits = forward(params, cfg, x)
    _, ref_logits = ref_forward(params, cfg, x)
    assert rel_err(logits, ref_logits) < 1e-12


def test_forward_matches_reference_without_residual_or_delay():
    for kw in (dict(residual_interval=None), dict(delay_enabled=False), dict(residual_interval=1)):
        cfg = tiny_config(**kw)
        params = ready_params(cfg)
        x = RNG.uniform(-2, 2, (9, cfg.input_dim))
        _, logits = forward(params, cfg, x)
        _, ref_logits = ref_forward(params, cfg, x)
        assert rel_err(logits, ref_logits) < 1e-12


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_backward_matches_reference(variant):
    cfg = tiny_config(**variant)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (10, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, 10)

    params.zero_grads()
    cache, _ = forward(params, cfg, x)
    loss = backward(params, cfg, cache, labels)

    store, _ = ref_forward(params, cfg, x)
    ref_loss_val, ref_grads = ref_backward(params, cfg, store, labels)

    assert loss == pytest.approx(ref_loss_val, rel=1e-12)
    assert rel_err(params.input_w.grad, ref_grads["input_w"]) < 1e-10
    assert rel_err(params.proj_w.grad, ref_grads["proj_w"]) < 1e-10
    for l in range(cfg.num_memory_layers):
        assert rel_err(params.layer_w[l].grad, ref_grads["layer_w"][l]) < 1e-10
        assert rel_err(params.layer_b[l].grad, ref_grads["layer_b"][l]) < 1e-10
    assert rel_err(params.out1_w.grad, ref_grads["out1_w"]) < 1e-10
    assert rel_err(params.out2_w.grad, ref_grads["out2_w"]) < 1e-10


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_tied_gradient_equals_sum_of_untied_copies(variant):
    # the shared transform is one matrix used by every layer; its gradient
    # must equal the sum of the per-layer gradients an untied model computes
    cfg = tiny_config(**variant)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (12, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, 12)

    params.zero_grads()
    cache, _ = forward(params, cfg, x)
    backward(params, cfg, cache, labels)

    store, _ = ref_forward(params, cfg, x)
    _, ref_grads = ref_backward(params, cfg, store, labels)

    untied_sum = sum(ref_grads["shared_past"])
    assert rel_err(params.shared_past.grad, untied_sum) < 1e-10
    if cfg.direction == "bi":
        untied_sum_future = sum(ref_grads["shared_future"])
        assert rel_err(params.shared_future.grad, untied_sum_future) < 1e-10


def test_truncated_window_matches_reference():
    cfg = tiny_config(direction="bi")
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (16, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, 16)
    window = (5, 12)

    params.zero_grads()
    cache, _ = forward(params, cfg, x)
    loss = backward(params, cfg, cache, labels, grad_window=window)

    store, _ = ref_forward(params, cfg, x)
    ref_loss_val, ref_grads = ref_backward(params, cfg, store, labels, grad_window=window)
    assert loss == pytest.approx(ref_loss_val, rel=1e-12)
    assert rel_err(params.shared_past.grad, sum(ref_grads["shared_past"])) < 1e-10
    assert rel_err(params.input_w.grad, ref_grads["input_w"]) < 1e-10
    for l in range(cfg.num_memory_layers):
        assert rel_err(params.layer_w[l].grad, ref_grads["layer_w"][l]) < 1e-10


def test_backward_loss_scale_scales_gradients():
    cfg = tiny_config()
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (8, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, 8)

    params.zero_grads()
    cache, _ = forward(params, cfg, x)
    backward(params, cfg, cache, labels)
    once = params.layer_w[0].grad.copy()

    params.zero_grads()
    cache, _ = forward(params, cfg, x)
    backward(params, cfg, cache, labels, loss_scale=0.25)
    assert np.allclose(params.layer_w[0].grad, 0.25 * once, rtol=1e-14, atol=0.0)


# --- finite-difference gradient checks ---------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_gradients_pass_finite_difference_check(variant):
    cfg = tiny_config(**variant)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (7, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, 7)
    assert check_gradients(params, cfg, x, labels) < 1e-4


def test_gradients_pass_without_residual_and_without_delay():
    for kw in (dict(residual_interval=None), dict(delay_enabled=False)):
        cfg = tiny_config(**kw)
        params = ready_params(cfg)
        x = RNG.uniform(-2, 2, (7, cfg.input_dim))
        labels = RNG.integers(0, cfg.num_classes, 7)
        assert check_gradients(params, cfg, x, labels) < 1e-4


def test_corrupted_gradient_fails_the_check():
    cfg = tiny_config()
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (7, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, 7)
    assert check_gradients(params, cfg, x, labels, corrupt=True) > 1e-2


# --- structural invariants ----------------------------------------------------


def test_fresh_init_equals_delay_disabled_baseline_bitwise():
    # shared transforms start at zero, so a fresh model must behave exactly
    # like the same weights with the delay machinery off
    cfg_on = tiny_config(num_memory_layers=4, residual_interval=3)
    cfg_off = tiny_config(num_memory_layers=4, residual_interval=3, delay_enabled=False)
    params = init_params(cfg_on, seed=5)
    x = RNG.uniform(-2, 2, (10, cfg_on.input_dim))

    _, logits_on = forward(params, cfg_on, x)
    _, logits_off = forward(params, cfg_off, x)
    assert np.array_equal(logits_on, logits_off)


def test_fresh_init_layer_gradients_match_baseline():
    cfg_on = tiny_config(num_memory_layers=4, residual_interval=3)
    cfg_off = tiny_config(num_memory_layers=4, residual_interval=3, delay_enabled=False)
    x = RNG.uniform(-2, 2, (10, cfg_on.input_dim))
    labels = RNG.integers(0, cfg_on.num_classes, 10)

    params_a = init_params(cfg_on, seed=5)
    cache, _ = forward(params_a, cfg_on, x)
    backward(params_a, cfg_on, cache, labels)

    params_b = init_params(cfg_off, seed=5)
    cache, _ = forward(params_b, cfg_off, x)
    backward(params_b, cfg_off, cache, labels)

    for pa, pb in zip(params_a.layer_w, params_b.layer_w):
        assert rel_err(pa.grad, pb.grad) < 1e-12
    for pa, pb in zip(params_a.layer_b, params_b.layer_b):
        assert rel_err(pa.grad, pb.grad) < 1e-12
    assert rel_err(params_a.input_w.grad, params_b.input_w.grad) < 1e-12


def test_diagonal_form_equals_full_diagonal_matrix():
    cfg_diag = tiny_config(direction="bi", shared_weight_form="diagonal")
    cfg_full = tiny_config(direction="bi", shared_weight_form="full")
    params_d = ready_params(cfg_diag)
    params_f = init_params(cfg_full, 0)
    # copy every weight, embedding the diagonal vectors into matrices
    for pf, pd in zip(params_f.parameters(), params_d.parameters()):
        if pd.name in ("shared_past", "shared_future"):
            pf.value[...] = np.diag(pd.value)
        else:
            pf.value[...] = pd.value

    x = RNG.uniform(-2, 2, (9, cfg_diag.input_dim))
    _, logits_d = forward(params_d, cfg_diag, x)
    _, logits_f = forward(params_f, cfg_full, x)
    assert rel_err(logits_d, logits_f) < 1e-12


def test_unidirectional_causality_is_exact():
    cfg = tiny_config(num_memory_layers=4, direction="uni")
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (14, cfg.input_dim))
    _, base = forward(params, cfg, x)

    bumped = x.copy()
    bumped[9] += 3.0
    _, moved = forward(params, cfg, bumped)
    # frames before the perturbed one are bitwise untouched
    assert np.array_equal(base[:9], moved[:9])
    assert not np.array_equal(base[9:], moved[9:])


def test_bidirectional_output_depends_on_future():
    cfg = tiny_config(num_memory_layers=3, direction="bi")
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (14, cfg.input_dim))
    _, base = forward(params, cfg, x)
    bumped = x.copy()
    bumped[9] += 3.0
    _, moved = forward(params, cfg, bumped)
    assert not np.array_equal(base[:9], moved[:9])


def test_residual_shortcut_is_exact_identity():
    cfg = tiny_config(num_memory_layers=4, residual_interval=2)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (8, cfg.input_dim))
    cache, _ = forward(params, cfg, x)
    assert cache.shortcut_layers == [2, 4]
    # out = relu(sum) + block_input exactly, block input being the previous
    # shortcut output (the projection for the first block)
    relu2 = np.maximum(cache.layer_sum[1], 0.0)
    assert np.array_equal(cache.layer_out[1], relu2 + cache.proj_post)
    relu4 = np.maximum(cache.layer_sum[3], 0.0)
    assert np.array_equal(cache.layer_out[3], relu4 + cache.layer_out[1])


def test_trailing_partial_block_gets_no_shortcut():
    cfg = tiny_config(num_memory_layers=5, residual_interval=3)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (6, cfg.input_dim))
    cache, _ = forward(params, cfg, x)
    assert cache.shortcut_layers == [3]
    # layers 4 and 5 are plain relu(sum)
    assert np.array_equal(cache.layer_out[4], np.maximum(cache.layer_sum[4], 0.0))


def test_forward_input_errors():
    cfg = tiny_config()
    params = ready_params(cfg)
    with pytest.raises(InputError):
        forward(params, cfg, np.zeros((0, cfg.input_dim)))
    with pytest.raises(DimensionError):
        forward(params, cfg, np.zeros((4, cfg.input_dim + 1)))
    with pytest.raises(InputError):
        forward(params, cfg, np.zeros(5))


def test_backward_consistency_errors():
    cfg = tiny_config()
    params = ready_params(cfg)
    other = ready_params(cfg, seed=99)
    x = RNG.uniform(-2, 2, (6, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, 6)
    cache, _ = forward(params, cfg, x)
    with pytest.raises(ConsistencyError):
        backward(other, cfg, cache, labels)
    with pytest.raises(ConsistencyError):
        backward(params, cfg, cache, labels[:-1])
    with pytest.raises(ValueError):
        backward(params, cfg, cache, labels, grad_window=(4, 2))


# --- parameter counting -------------------------------------------------------


def test_param_count_matches_actual_parameter_sizes():
    for variant in ALL_VARIANTS:
        cfg = tiny_config(**variant)
        params = init_params(cfg, 0)
        assert param_count(cfg) == sum(p.size for p in params.parameters())


def test_param_count_known_configurations():
    # 18 memory layers, 1024-wide blocks, 512-wide memory, 4006 classes
    known = [
        (440, "uni", 10336166),
        (40, "bi", 9927078),
        (540, "uni", 10438566),
        (140, "bi", 10029478),
    ]
    for input_dim, direction, expect in known:
        cfg = RMNConfig(
            input_dim=input_dim,
            num_memory_layers=18,
            num_classes=4006,
            wide_dim=1024,
            memory_dim=512,
            direction=direction,
        )
        assert param_count(cfg) == expect
        assert round(param_count(cfg) / 1e6, 1) == round(expect / 1e6, 1)


def test_param_count_lstmp_known_value():
    assert param_count_lstmp(1, 1, 1, 1, 1) == 15
    n = param_count_lstmp(3, 1024, 512, 40, 4006)
    assert n == 14289830
    # the 18-layer 440-input model carries ~28% fewer parameters
    cfg = RMNConfig(input_dim=440, num_memory_layers=18, num_classes=4006)
    reduction = 100.0 * (n - param_count(cfg)) / n
    assert 25.9 <= reduction <= 31.9


# --- receptive field ----------------------------------------------------------


def test_receptive_field_analytic_values():
    cfg = tiny_config(num_memory_layers=3)
    assert receptive_field(cfg) == (6, 0)
    cfg = tiny_config(num_memory_layers=3, direction="bi")
    assert receptive_field(cfg) == (6, 6)
    cfg = tiny_config(num_memory_layers=3, splice_left=4, splice_right=2)
    assert receptive_field(cfg) == (10, 2)
    cfg = tiny_config(delay_enabled=False, splice_left=4, splice_right=2)
    assert receptive_field(cfg) == (4, 2)


@pytest.mark.parametrize("l_count", [1, 2, 3, 5])
def test_probe_matches_analytic_bound(l_count):
    cfg = RMNConfig(
        input_dim=3,
        num_memory_layers=l_count,
        num_classes=3,
        wide_dim=6,
        memory_dim=4,
        residual_interval=2,
    )
    params = ready_params(cfg)
    span = l_count * (l_count + 1) // 2
    assert probe_receptive_field(params, cfg, t_frames=2 * span + 8, seed=3) == (span, 0)


def test_probe_matches_analytic_bound_bidirectional_with_splice():
    cfg = RMNConfig(
        input_dim=9,
        num_memory_layers=2,
        num_classes=3,
        wide_dim=6,
        memory_dim=4,
        direction="bi",
        splice_left=1,
        splice_right=1,
    )
    params = ready_params(cfg)
    assert probe_receptive_field(params, cfg, t_frames=24, seed=3) == (4, 4)


def test_probe_rejects_short_sequences():
    cfg = tiny_config(num_memory_layers=5)
    params = ready_params(cfg)
    with pytest.raises(WindowError):
        probe_receptive_field(params, cfg, t_frames=10, seed=0)


# --- streaming ----------------------------------------------------------------


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_streaming_matches_full_forward_bidirectional(chunk):
    cfg = tiny_config(num_memory_layers=3, direction="bi")
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (40, cfg.input_dim))
    _, full = forward(params, cfg, x)
    span = delay_span(cfg)
    out = streaming_forward(params, cfg, x, chunk_size=chunk, lookahead=span)
    assert np.abs(out - full).max() < 1e-9


def test_streaming_unidirectional_needs_no_lookahead():
    cfg = tiny_config(num_memory_layers=3, direction="uni")
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (30, cfg.input_dim))
    _, full = forward(params, cfg, x)
    out = streaming_forward(params, cfg, x, chunk_size=5, lookahead=0)
    assert np.abs(out - full).max() < 1e-9


def test_streaming_short_lookahead_differs_for_bidirectional():
    cfg = tiny_config(num_memory_layers=3, direction="bi")
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (40, cfg.input_dim))
    _, full = forward(params, cfg, x)
    out = streaming_forward(params, cfg, x, chunk_size=7, lookahead=0)
    assert np.abs(out - full).max() > 1e-6


def test_streaming_rejects_bad_arguments():
    cfg = tiny_config()
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (10, cfg.input_dim))
    with pytest.raises(ValueError):
        streaming_forward(params, cfg, x, chunk_size=0, lookahead=1)
    with pytest.raises(ValueError):
        streaming_forward(params, cfg, x, chunk_size=4, lookahead=-1)


# --- checkpoints --------------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_checkpoint_round_trip_is_value_exact(variant, tmp_path):
    cfg = tiny_config(**variant, splice_left=1, splice_right=2)
    params = ready_params(cfg, seed=31)
    model = Model(cfg, params)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    back = load_checkpoint(path)

    assert back.config == cfg
    for pa, pb in zip(params.parameters(), back.params.parameters()):
        assert pa.name == pb.name
        assert np.array_equal(pa.value, pb.value)
        assert np.array_equal(pb.grad, np.zeros_like(pb.value))
        assert np.array_equal(pb.velocity, np.zeros_like(pb.value))


def test_checkpoint_round_trip_preserves_forward_bitwise(tmp_path):
    cfg = tiny_config(direction="bi")
    params = ready_params(cfg, seed=8)
    model = Model(cfg, params)
    x = RNG.uniform(-2, 2, (9, cfg.input_dim))
    _, before = forward(params, cfg, x)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    _, after = forward(back.params, back.config, x)
    assert np.array_equal(before, after)


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "not.ckpt"
    path.write_text("something else entirely\n")
    with pytest.raises(ValueError):
        load_checkpoint(path)


@settings(max_examples=60, deadline=None)
@given(cut=st.floats(min_value=0.0, max_value=1.0), at_line_end=st.booleans())
def test_cut_checkpoint_loads_or_raises_value_error(tmp_path_factory, cut, at_line_end):
    cfg = tiny_config(direction="bi", shared_weight_form="full", splice_left=1)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(Model(cfg, ready_params(cfg)), path)
    text = path.read_bytes()
    if at_line_end:
        lines = text.splitlines(keepends=True)
        text = b"".join(lines[: int(cut * len(lines))])
    else:
        text = text[: int(cut * len(text))]
    path.write_bytes(text)
    try:
        assert isinstance(load_checkpoint(path), Model)
    except ValueError as e:
        assert str(path) in str(e)


# --- model_input --------------------------------------------------------------


def test_model_input_applies_configured_splice():
    cfg = tiny_config(input_dim=9, splice_left=1, splice_right=1)
    raw = RNG.normal(size=(5, 3))
    x = model_input(cfg, raw)
    assert x.shape == (5, 9)
    assert np.array_equal(x[2], np.concatenate([raw[1], raw[2], raw[3]]))


def test_model_input_without_splice_is_identity():
    cfg = tiny_config()
    raw = RNG.normal(size=(5, cfg.input_dim))
    assert np.array_equal(model_input(cfg, raw), raw)
