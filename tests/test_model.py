"""Architecture-level checks: a hand-computed forward oracle, equivalence
against the naive untied reference implementation, finite-difference
gradient verification, structural invariants (causality, residual
identity, zero-init equivalence), analysis tools and checkpoints."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from rmnlab.model import (
    Carry,
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
    streaming_forward,
)
from rmnlab.model import _rows
from rmnlab import model as model_mod
from rmnlab.numerics import DimensionError, affine, softmax_xent

from reference_model import (grad_errors, named_grads, ref_backward, ref_forward, ref_grad_scale,
                             rel_max)

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


# --- row helper --------------------------------------------------------------


def test_shift_rows_both_directions():
    # _rows(x, -k, T - k) is x shifted later by k (earlier by -k), zero-filled
    x = np.arange(8.0).reshape(4, 2)
    assert np.array_equal(_rows(x, -1, 3)[0], [0.0, 0.0])
    assert np.array_equal(_rows(x, -1, 3)[1:], x[:-1])
    assert np.array_equal(_rows(x, 2, 6)[:2], x[2:])
    assert np.array_equal(_rows(x, 2, 6)[2:], np.zeros((2, 2)))
    assert np.array_equal(_rows(x, 0, 4), x)
    assert np.shares_memory(_rows(x, 1, 3), x)


def test_shift_rows_beyond_length_is_all_zero():
    x = np.ones((3, 2))
    assert np.array_equal(_rows(x, -3, 0), np.zeros((3, 2)))
    assert np.array_equal(_rows(x, 7, 10), np.zeros((3, 2)))


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


TRIM_VARIANTS = [
    dict(direction=d, shared_weight_form=f, residual_interval=r, delay_enabled=on)
    for d in ("uni", "bi")
    for f in ("diagonal", "full")
    for r in (1, 3, None)
    for on in (True, False)
    if on or d == "uni"
]


@pytest.mark.parametrize("variant", TRIM_VARIANTS, ids=lambda v: "-".join(map(str, v.values())))
def test_trimmed_forward_and_windowed_backward_match_reference(variant):
    # forward(rows=w) computes each layer on only the rows reaching w and
    # backward(grad_window=w) runs on w alone; both must equal the frame
    # loop over the whole utterance
    cfg = tiny_config(num_memory_layers=4, **variant)
    params = ready_params(cfg)
    t_frames = 30
    x = RNG.uniform(-2, 2, (t_frames, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, t_frames)
    store, ref_logits = ref_forward(params, cfg, x)
    for lo, hi in ((0, 4), (12, 19), (25, 30), (15, 16)):
        cache, logits = forward(params, cfg, x, rows=(lo, hi))
        assert logits.shape == (hi - lo, cfg.num_classes)
        assert rel_max(logits, ref_logits[lo:hi]) < 1e-12
        params.zero_grads()
        loss = backward(params, cfg, cache, labels, grad_window=(lo, hi))
        ref_loss_val, ref_grads = ref_backward(params, cfg, store, labels, grad_window=(lo, hi))
        assert loss == pytest.approx(ref_loss_val, rel=1e-12)
        scale = ref_grad_scale(params, cfg, store, labels, grad_window=(lo, hi))
        worst = grad_errors(params, ref_grads, scale)
        assert max(worst.values()) < 1e-12, ((lo, hi), worst)


@pytest.mark.parametrize("direction", ["uni", "bi"])
@pytest.mark.parametrize("rows", [(20, 25), (2, 5), (38, 40), (0, 40)])
def test_trimmed_forward_caches_only_the_rows_that_reach_the_output(direction, rows):
    # layer l (0-based, delay m = L - l) needs the requested rows plus the
    # delays of layers l..L-1 before them (and after them when bi); a
    # silent fall-back to full context would cache all 40 rows
    l_count, t_frames = 4, 40
    cfg = tiny_config(num_memory_layers=l_count, direction=direction, residual_interval=2)
    params = ready_params(cfg)
    lo, hi = rows
    cache, _ = forward(params, cfg, RNG.uniform(-2, 2, (t_frames, cfg.input_dim)), rows=rows)

    def length(l):
        reach = sum(l_count - j for j in range(l, l_count))
        ahead = reach if direction == "bi" else 0
        return min(t_frames, hi + ahead) - max(0, lo - reach)

    for l in range(l_count):
        assert len(cache.layer_pre[l]) == length(l)
        assert len(cache.layer_sum[l]) == len(cache.layer_out[l]) == length(l + 1)
    for a in (cache.input_post, cache.proj_post):
        assert len(a) == length(0)
    for a in (cache.out1_post, cache.logits):
        assert len(a) == hi - lo
    assert len(cache.x) == t_frames


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


def assert_shortcuts(cache, sources):
    """Every layer's output is relu(layer_sum) exactly, plus outs[j] for a
    layer numbered n (from 1) with sources[n] = j, where outs = [projection
    output] + layer outputs."""
    outs = [cache.proj_post] + cache.layer_out
    for n, (z, out) in enumerate(zip(cache.layer_sum, cache.layer_out), start=1):
        expected = np.maximum(z, 0.0)
        if n in sources:
            expected = expected + outs[sources[n]]
        assert np.array_equal(out, expected), f"layer {n}"


def test_residual_shortcut_is_exact_identity():
    cfg = tiny_config(num_memory_layers=4, residual_interval=2)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (8, cfg.input_dim))
    cache, _ = forward(params, cfg, x)
    # each shortcut adds the previous shortcut's output (the projection for
    # the first block)
    assert_shortcuts(cache, {2: 0, 4: 2})


def test_trailing_partial_block_gets_no_shortcut():
    cfg = tiny_config(num_memory_layers=5, residual_interval=3)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (6, cfg.input_dim))
    cache, _ = forward(params, cfg, x)
    # layers 4 and 5 are plain relu(sum)
    assert_shortcuts(cache, {3: 0})


def test_forward_input_errors():
    cfg = tiny_config()
    params = ready_params(cfg)
    with pytest.raises(InputError):
        forward(params, cfg, np.zeros((0, cfg.input_dim)))
    with pytest.raises(DimensionError):
        forward(params, cfg, np.zeros((4, cfg.input_dim + 1)))
    with pytest.raises(InputError):
        forward(params, cfg, np.zeros(5))
    # stacked utterance lengths: none empty, summing to the rows of x, and
    # only for scoring whole utterances
    x = np.zeros((6, cfg.input_dim))
    with pytest.raises(InputError):
        forward(params, cfg, x, lengths=[3, 0, 3])
    for lengths in ([2, 3], [], [7, -1]):
        with pytest.raises(ValueError, match="do not stack"):
            forward(params, cfg, x, lengths=lengths)
    with pytest.raises(ValueError, match="rows or carry"):
        forward(params, cfg, x, rows=(0, 3), lengths=[6])
    with pytest.raises(ValueError, match="rows or carry"):
        forward(params, cfg, x, carry=Carry(6), lengths=[6])


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
    trimmed, _ = forward(params, cfg, x, rows=(3, 5))
    with pytest.raises(ValueError):
        backward(params, cfg, trimmed, labels, grad_window=(2, 5))
    for rows in ((4, 2), (-1, 3), (0, 7), (3, 3)):
        with pytest.raises(ValueError):
            forward(params, cfg, x, rows=rows)


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


STREAM_VARIANTS = [
    {},
    dict(residual_interval=1),
    dict(residual_interval=3),
    dict(residual_interval=None),
    dict(shared_weight_form="full"),
    dict(delay_enabled=False),
]


@pytest.mark.parametrize("direction", ["uni", "bi"])
@pytest.mark.parametrize("splice", [0, 2])
def test_streaming_equals_full_forward_of_each_context_window(direction, splice):
    # every chunk's logits equal those of an untrimmed forward over the
    # chunk's context window, for every lookahead short of and at the span:
    # rows carried from one window to the next must be the ones it would
    # have computed itself
    for chunk, variant in itertools.product([5, 1, 3, 7], STREAM_VARIANTS):
        if direction == "bi" and not variant.get("delay_enabled", True):
            continue
        cfg = tiny_config(num_memory_layers=3, direction=direction,
                          input_dim=6 * (2 * splice + 1), splice_left=splice, splice_right=splice,
                          **variant)
        params = ready_params(cfg)
        x = model_input(cfg, RNG.uniform(-2, 2, (37, 6)))
        for lookahead in range(delay_span(cfg) + 1):
            out = streaming_forward(params, cfg, x, chunk_size=chunk, lookahead=lookahead)
            for start in range(0, 37, chunk):
                end = min(start + chunk, 37)
                _, full = forward(params, cfg, x[: min(37, end + lookahead)])
                assert rel_max(out[start:end], full[start:end]) < 1e-12, (chunk, variant, lookahead, start)


@pytest.mark.parametrize("chunk", [1, 5, 23])
@pytest.mark.parametrize("direction", ["uni", "bi"])
def test_streaming_computes_each_row_once_given_enough_lookahead(chunk, direction, monkeypatch):
    # every affine weight sees the rows of one full pass, however the
    # utterance is chunked; recomputing each window's reach would see more
    cfg = tiny_config(num_memory_layers=4, direction=direction)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (23, cfg.input_dim))
    span = delay_span(cfg)
    lookaheads = range(span + 2) if direction == "uni" else [span, span + 3]
    weights = [params.input_w, params.proj_w, *params.layer_w, params.out1_w, params.out2_w]
    rows: dict[int, int] = {}

    def counting_affine(v, w, b):
        rows[id(w)] = rows.get(id(w), 0) + v.shape[0]
        return affine(v, w, b)

    monkeypatch.setattr(model_mod, "affine", counting_affine)
    for lookahead in lookaheads:
        rows.clear()
        streaming_forward(params, cfg, x, chunk_size=chunk, lookahead=lookahead)
        assert [rows.get(id(p.value)) for p in weights] == [23] * len(weights), lookahead


@pytest.mark.parametrize("lookahead", [0, 2, "span"])
def test_streamed_chunk_never_reads_beyond_its_context_window(lookahead):
    # poisoning every input row at or after chunk k's window edge leaves
    # chunk k's logits exactly as they were; a pass over the whole
    # utterance would spread the NaNs everywhere
    cfg = tiny_config(num_memory_layers=3, direction="bi")
    params = ready_params(cfg)
    lookahead = delay_span(cfg) if lookahead == "span" else lookahead
    t_frames, chunk = 29, 4
    x = RNG.uniform(-2, 2, (t_frames, cfg.input_dim))
    clean = streaming_forward(params, cfg, x, chunk_size=chunk, lookahead=lookahead)
    for start in range(0, t_frames, chunk):
        end = min(start + chunk, t_frames)
        poisoned = x.copy()
        poisoned[min(t_frames, end + lookahead) :] = np.nan
        out = streaming_forward(params, cfg, poisoned, chunk_size=chunk, lookahead=lookahead)
        assert np.isfinite(out[start:end]).all(), start
        assert np.array_equal(out[start:end], clean[start:end]), start


def test_streaming_buffers_only_what_later_windows_read(monkeypatch):
    # a Carry holds the projection output and each layer's pre-activation
    # and output; the wide input block's output and the relu inputs, which
    # only a backward pass reads, are never buffered, and no ForwardCache
    # is built
    cfg = tiny_config(input_dim=4, wide_dim=64, memory_dim=8, num_memory_layers=8)
    params = ready_params(cfg)
    t_frames = 3000
    x = np.random.default_rng(5).uniform(-2, 2, (t_frames, cfg.input_dim))
    carried = 8 * t_frames * cfg.memory_dim * (1 + 2 * cfg.num_memory_layers)
    unread = 8 * t_frames * (cfg.wide_dim + cfg.memory_dim * cfg.num_memory_layers)
    tracemalloc.start()
    try:
        streaming_forward(params, cfg, x, chunk_size=50, lookahead=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < carried + unread / 2, (peak, carried, unread)

    def no_cache(*args, **kwargs):
        raise AssertionError("streaming built a ForwardCache")

    monkeypatch.setattr(model_mod, "ForwardCache", no_cache)
    for direction in ("uni", "bi"):
        cfg = tiny_config(direction=direction)
        x = np.random.default_rng(6).uniform(-2, 2, (40, cfg.input_dim))
        streaming_forward(ready_params(cfg), cfg, x, chunk_size=7, lookahead=3)


def test_carry_rejects_a_window_that_moves_back_or_overruns():
    cfg = tiny_config(direction="bi")
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (30, cfg.input_dim))
    for rows, width in (
        ((7, 9), 12),    # requested rows start before the previous call's
        ((8, 9), 11),    # window ends before the previous one
        ((12, 13), 21),  # window runs past the utterance
        ((1, 11), 14),   # rows reach back to buffer rows no call has written
    ):
        carry = Carry(20)
        forward(params, cfg, x[:12], rows=(8, 10), carry=carry)
        with pytest.raises(ValueError, match="do not follow"):
            forward(params, cfg, x[:width], rows=rows, carry=carry)


def test_carry_accepts_windows_that_only_move_forward():
    # windows off the chunk grid, whose rows and end only move forward,
    # give the logits of a plain forward over each prefix
    cfg = tiny_config(direction="bi")
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (20, cfg.input_dim))
    carry = Carry(20)
    for rows, width in (((8, 10), 12), ((8, 11), 14), ((13, 20), 20)):
        got = forward(params, cfg, x[:width], rows=rows, carry=carry)
        _, want = forward(params, cfg, x[:width])
        assert rel_max(got, want[rows[0] : rows[1]]) < 1e-12, rows


def test_streaming_rejects_an_empty_utterance():
    cfg = tiny_config()
    with pytest.raises(InputError):
        streaming_forward(ready_params(cfg), cfg, np.zeros((0, cfg.input_dim)), 4, 1)


def test_streaming_rejects_bad_arguments():
    cfg = tiny_config()
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (10, cfg.input_dim))
    with pytest.raises(ValueError):
        streaming_forward(params, cfg, x, chunk_size=0, lookahead=1)
    with pytest.raises(ValueError):
        streaming_forward(params, cfg, x, chunk_size=4, lookahead=-1)


# --- differential fuzzing -------------------------------------------------------


@st.composite
def fuzz_cases(draw):
    """A small random model, utterance length, logit rows, gradient window
    and streaming chunk/lookahead."""
    dim = st.integers(1, 6)
    direction = draw(st.sampled_from(["uni", "bi"]))
    l_count = draw(st.integers(1, 6))
    splice_left, splice_right = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    raw_dim = draw(dim)
    cfg = RMNConfig(
        input_dim=raw_dim * (splice_left + 1 + splice_right),
        num_memory_layers=l_count,
        num_classes=draw(dim),
        wide_dim=draw(dim),
        memory_dim=draw(dim),
        direction=direction,
        shared_weight_form=draw(st.sampled_from(["diagonal", "full"])),
        residual_interval=draw(st.none() | st.integers(1, l_count + 1)),
        delay_enabled=direction == "bi" or draw(st.booleans()),
        splice_left=splice_left,
        splice_right=splice_right,
    )
    span = delay_span(cfg)
    t_frames = draw(st.integers(1, span + 3))
    lo = draw(st.integers(0, t_frames - 1))
    hi = draw(st.integers(lo + 1, t_frames))
    g_lo = draw(st.integers(lo, hi - 1))
    g_hi = draw(st.integers(g_lo + 1, hi))
    chunk = draw(st.integers(1, t_frames + 1))
    lookahead = draw(st.integers(0, span + 2))
    other = draw(st.integers(1, span + 3))
    return (cfg, raw_dim, t_frames, (lo, hi), (g_lo, g_hi), chunk, lookahead, other,
            draw(st.integers(0, 999)))


# draws whose gradient sums nearly cancel; both failed a bound relative to
# the largest |reference| entry. In the first, out1_b's gradient at one
# frame is out2_w[0] . g_logits, six terms of a softmax minus a one-hot,
# which sums to zero
@settings(max_examples=200, deadline=None)
@given(case=fuzz_cases())
@example(case=(RMNConfig(input_dim=3, num_memory_layers=1, num_classes=6, wide_dim=1, memory_dim=1,
                         residual_interval=None, delay_enabled=False, splice_right=2),
               1, 2, (0, 1), (0, 1), 1, 0, 1, 741))
@example(case=(RMNConfig(input_dim=6, num_memory_layers=5, num_classes=3, wide_dim=6, memory_dim=4,
                         direction="bi", shared_weight_form="full", residual_interval=1,
                         delay_enabled=True, splice_right=2),
               2, 16, (0, 14), (11, 14), 1, 0, 1, 139))
def test_fuzzed_forward_backward_and_streaming_match_the_reference(case):
    # trimmed forward and windowed backward against the frame loop over the
    # whole utterance; every streamed chunk against forward over the prefix
    # that ends at its lookahead edge; scoring of the utterance stacked
    # around another one against both alone
    cfg, raw_dim, t_frames, (lo, hi), window, chunk, lookahead, other, seed = case
    params = ready_params(cfg, seed)
    rng = np.random.default_rng(seed)
    x = model_input(cfg, rng.uniform(-2, 2, (t_frames, raw_dim)))
    labels = rng.integers(0, cfg.num_classes, t_frames)
    store, ref_logits = ref_forward(params, cfg, x)

    cache, logits = forward(params, cfg, x, rows=(lo, hi))
    assert rel_max(logits, ref_logits[lo:hi]) < 1e-12
    params.zero_grads()
    loss = backward(params, cfg, cache, labels, grad_window=window)
    ref_loss_val, ref_grads = ref_backward(params, cfg, store, labels, grad_window=window)
    assert loss == pytest.approx(ref_loss_val, rel=1e-12)
    scale = ref_grad_scale(params, cfg, store, labels, grad_window=window)
    worst = grad_errors(params, ref_grads, scale)
    assert max(worst.values()) < 1e-12, worst

    out = streaming_forward(params, cfg, x, chunk_size=chunk, lookahead=lookahead)
    for start in range(0, t_frames, chunk):
        end = min(start + chunk, t_frames)
        _, full = forward(params, cfg, x[: min(t_frames, end + lookahead)])
        assert rel_max(out[start:end], full[start:end]) < 1e-12, start

    assert np.array_equal(forward(params, cfg, x, lengths=[t_frames]), forward(params, cfg, x)[1])
    y = model_input(cfg, rng.uniform(-2, 2, (other, raw_dim)))
    _, y_alone = forward(params, cfg, y)
    stacked = forward(params, cfg, np.concatenate([y, x, y]), lengths=[other, t_frames, other])
    assert rel_max(stacked[other : other + t_frames], ref_logits) < 1e-12
    assert rel_max(stacked[:other], y_alone) < 1e-12
    assert rel_max(stacked[other + t_frames :], y_alone) < 1e-12


def test_a_gradient_off_by_1e_9_of_its_magnitude_sum_fails_the_reference_comparison():
    # the negative control of grad_errors' bound: 1e-12 of the magnitude sum
    cfg = tiny_config(direction="bi", shared_weight_form="full")
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (12, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, 12)
    store, _ = ref_forward(params, cfg, x)
    cache, _ = forward(params, cfg, x)
    params.zero_grads()
    backward(params, cfg, cache, labels)
    _, ref_grads = ref_backward(params, cfg, store, labels)
    scale = ref_grad_scale(params, cfg, store, labels)
    assert max(grad_errors(params, ref_grads, scale).values()) < 1e-12
    for p in params.parameters():
        sums = named_grads(scale)[p.name]
        entry = np.unravel_index(np.argmax(sums), sums.shape)
        p.grad[entry] += 1e-9 * sums[entry]
        assert grad_errors(params, ref_grads, scale)[p.name] > 1e-12, p.name
        p.grad[entry] -= 1e-9 * sums[entry]


class CarryMachine(RuleBasedStateMachine):
    """One `Carry` driven by a random sequence of context windows: prefixes
    x[:width] with requested rows [lo, hi). A window is valid when it lies
    inside the utterance and neither its first row nor its end moves back;
    then its logits match a plain forward over the prefix. Any other window
    raises ValueError and leaves the carry as it was."""

    @initialize(data=st.data())
    def setup(self, data):
        direction = data.draw(st.sampled_from(["uni", "bi"]))
        l_count = data.draw(st.integers(1, 4))
        splice = data.draw(st.integers(0, 1))
        self.cfg = tiny_config(
            input_dim=2 * (2 * splice + 1),
            num_memory_layers=l_count,
            direction=direction,
            shared_weight_form=data.draw(st.sampled_from(["diagonal", "full"])),
            residual_interval=data.draw(st.none() | st.integers(1, l_count + 1)),
            delay_enabled=direction == "bi" or data.draw(st.booleans()),
            splice_left=splice,
            splice_right=splice,
        )
        self.t_frames = data.draw(st.integers(1, delay_span(self.cfg) + 3))
        seed = data.draw(st.integers(0, 999))
        self.params = ready_params(self.cfg, seed)
        # two rows past the utterance, so that a window can overrun it
        raw = np.random.default_rng(seed).uniform(-2, 2, (self.t_frames + 2, 2))
        self.x = model_input(self.cfg, raw)
        self.carry = Carry(self.t_frames)
        self.last = (0, 0)  # first requested row and end of the last valid window

    def run(self, lo, hi, width):
        last_lo, last_width = self.last
        if last_lo <= lo and hi <= width and last_width <= width <= self.t_frames:
            got = forward(self.params, self.cfg, self.x[:width], rows=(lo, hi), carry=self.carry)
            _, want = forward(self.params, self.cfg, self.x[:width])
            assert rel_max(got, want[lo:hi]) < 1e-12
            self.last = (lo, width)
        else:
            with pytest.raises(ValueError):
                forward(self.params, self.cfg, self.x[:width], rows=(lo, hi), carry=self.carry)

    @rule(data=st.data())
    def valid_window(self, data):
        last_lo, last_width = self.last
        width = data.draw(st.integers(max(last_width, 1), self.t_frames))
        lo = data.draw(st.integers(last_lo, width - 1))
        self.run(lo, data.draw(st.integers(lo + 1, width)), width)

    @rule(data=st.data())
    def any_window(self, data):
        width = data.draw(st.integers(1, self.t_frames + 2))
        lo = data.draw(st.integers(0, width - 1))
        self.run(lo, data.draw(st.integers(lo + 1, self.t_frames + 2)), width)


CarryMachine.TestCase.settings = settings(max_examples=100, stateful_step_count=10, deadline=None)
TestCarryMachine = CarryMachine.TestCase


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


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_checkpoint_rejects_non_finite_values(tmp_path, bad):
    cfg = tiny_config(direction="bi")
    path = tmp_path / "model.ckpt"
    save_checkpoint(Model(cfg, ready_params(cfg)), path)
    lines = path.read_text().splitlines(keepends=True)
    row = lines.index(next(ln for ln in lines if ln.startswith("param shared_future"))) + 1
    values = lines[row].split()
    values[2] = bad
    lines[row] = " ".join(values) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="shared_future.*non-finite") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


BLOCK = model_mod._CKPT_BLOCK_ROWS
# input_w spans two and a half of the reader's row blocks
MULTI_BLOCK = dict(input_dim=2 * BLOCK + BLOCK // 2)


@settings(max_examples=60, deadline=None)
@given(cut=st.floats(min_value=0.0, max_value=1.0), at_line_end=st.booleans(),
       extra=st.sampled_from([{}, MULTI_BLOCK]))
def test_cut_checkpoint_loads_or_raises_value_error(tmp_path_factory, cut, at_line_end, extra):
    cfg = tiny_config(direction="bi", shared_weight_form="full", splice_left=1, **extra)
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


@pytest.mark.parametrize("damage", ["cut at a block end", "cut in the second block",
                                    "short row in the third block", "nan in the second block",
                                    "blank row in the second block"])
def test_damage_in_a_later_row_block_names_the_parameter(tmp_path, damage):
    cfg = tiny_config(**MULTI_BLOCK)
    path = tmp_path / "model.ckpt"
    save_checkpoint(Model(cfg, ready_params(cfg)), path)
    lines = path.read_text().splitlines(keepends=True)
    first = lines.index(next(ln for ln in lines if ln.startswith("param input_w"))) + 1
    if damage == "cut at a block end":
        lines = lines[: first + BLOCK]
    elif damage == "cut in the second block":
        lines = lines[: first + BLOCK + 5]
    elif damage == "short row in the third block":
        row = first + 2 * BLOCK + 3
        lines[row] = lines[row].rsplit(" ", 1)[0] + "\n"
    elif damage == "blank row in the second block":
        lines[first + BLOCK + 7] = "\n"
    else:
        row = first + BLOCK + 7
        values = lines[row].split()
        values[1] = "nan"
        lines[row] = " ".join(values) + "\n"
    path.write_text("".join(lines))
    cause = {"short row in the third block": f"row {2 * BLOCK + 3}: row has",
             "nan in the second block": f"row {BLOCK + 7}: non-finite",
             "blank row in the second block": f"row {BLOCK + 7}: blank row"}.get(damage, "is truncated")
    with pytest.raises(ValueError, match=re.escape(f"{path}: parameter 'input_w' {cause}")):
        load_checkpoint(path)


@pytest.mark.parametrize("tail", ["junk\n", "0 0 0\n", "a second checkpoint"],
                         ids=["junk", "a row", "a second checkpoint"])
def test_content_after_the_last_parameter_is_refused(tmp_path, tail):
    cfg = tiny_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(Model(cfg, ready_params(cfg)), path)
    text = path.read_text()
    path.write_text(text + " \n\t\n")
    assert isinstance(load_checkpoint(path), Model)
    path.write_text(text + (text if tail == "a second checkpoint" else "\n" + tail))
    with pytest.raises(ValueError, match=re.escape(f"{path}: content after the last parameter")):
        load_checkpoint(path)


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
