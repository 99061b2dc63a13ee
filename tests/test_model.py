"""Architecture-level checks: a hand-computed forward oracle, equivalence
against the naive untied reference implementation, finite-difference
gradient verification, structural invariants (causality, residual
identity, zero-init equivalence), analysis tools and checkpoints."""

import copy
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
from rmnlab import numerics as numerics_mod
from rmnlab.numerics import (GRAD_BOUND, DimensionError, Parameter, affine, grad_check_resolved,
                             relu, softmax_xent, xent_loss)

from reference_model import (grad_errors, named_grads, ref_backward, ref_forward, ref_grad_scale,
                             rel_max)

RNG = np.random.default_rng(123)


@pytest.fixture(autouse=True)
def fresh_rng():
    """Every test draws its data from RNG as seeded, whichever tests ran
    before it."""
    global RNG
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
    for side in ("splice_left", "splice_right"):
        with pytest.raises(ValueError, match="splice widths must be >= 0"):
            tiny_config(**{side: -1})


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


def backward_literal(params, cfg, cache, labels, grads, loss_scale=1.0, grad_window=None):
    """`backward` written out per layer on whole arrays: np.where relu
    masks, a copy of each relu gradient, zero-padded taps and tap adjoints,
    and every product a fresh array added into `grads` ({name: array}).
    Returns the loss."""

    def relu_grad(x, g):
        return np.where(x > 0.0, g, 0.0)

    def affine_grads(x, w, b, g):
        grads[w.name] += x.T @ g
        grads[b.name] += g.sum(axis=0)
        return g @ w.value.T

    spans = cache.spans
    r_lo, r_hi = spans[-1]
    lo, hi = (r_lo, r_hi) if grad_window is None else grad_window

    def win(a, start):
        return a[lo - start : hi - start]

    loss, g_logits = softmax_xent(win(cache.logits, r_lo), labels[lo:hi])
    g_logits *= loss_scale
    g = affine_grads(win(cache.out1_post, r_lo), params.out2_w, params.out2_b, g_logits)
    g = relu_grad(win(cache.out1_post, r_lo), g)
    outs = [cache.output(j) for j in range(len(spans))]
    g_outs = {len(outs) - 1: affine_grads(win(outs[-1], r_lo), params.out1_w, params.out1_b, g)}
    for l, (taps, src) in reversed(list(enumerate(model_mod._wiring(params, cfg)))):
        g_out = g_outs.pop(l + 1)
        if src is not None:
            g_outs[src] = g_out
        a = spans[l][0]
        g_sum = np.where(win(cache.layer_mask[l], spans[l + 1][0]), g_out, 0.0)
        g_pre = g_sum.copy()
        for shared, k in taps:
            tap = _rows(cache.layer_pre[l], lo - a - k, hi - a - k)
            if cfg.shared_weight_form == "diagonal":
                g_tap, g_shared = g_sum * shared.value, (tap * g_sum).sum(axis=0)
            else:
                g_tap, g_shared = g_sum @ shared.value.T, tap.T @ g_sum
            grads[shared.name] += g_shared
            g_pre += _rows(g_tap, k, hi - lo + k)
        g_below = affine_grads(win(outs[l], a), params.layer_w[l], params.layer_b[l], g_pre)
        g_outs[l] = g_below + g_outs[l] if l in g_outs else g_below
    a = spans[0][0]
    g = relu_grad(win(cache.proj_post, a), g_outs[0])
    g = affine_grads(win(cache.input_post, a), params.proj_w, params.proj_b, g)
    g = relu_grad(win(cache.input_post, a), g)
    affine_grads(cache.x[lo:hi], params.input_w, params.input_b, g)
    return loss


def literal_pieces(t_frames):
    """Forward rows and the grad windows inside them, summed as one training
    step sums its pieces: both utterance edges, 1-row windows, and windows
    shorter than the first layer's delay of 4."""
    t = t_frames
    return [
        [((0, t), None)],
        [((0, 3), None), ((t - 3, t), None), ((15, 16), None)],
        [((0, 1), None), ((t - 1, t), None)],
        [((5, 25), (8, 10)), ((2, t - 2), (2, t - 2)), ((0, 12), (11, 12))],
    ]


# the full form at widths where OpenBLAS runs its blocked GEMM kernels: the
# tap adjoint multiplies shifted, zero-padded rows, the literal shifts after
# the product
BLOCKED_VARIANTS = [dict(direction=d, shared_weight_form="full", memory_dim=64, wide_dim=96,
                         frames=40) for d in ("uni", "bi")]


@pytest.mark.parametrize("splice", [0, 1])
@pytest.mark.parametrize("variant", TRIM_VARIANTS + BLOCKED_VARIANTS,
                         ids=lambda v: "-".join(map(str, v.values())))
def test_backward_equals_the_literal_per_layer_formulation_bit_for_bit(variant, splice):
    variant = dict(variant)
    raw_dim, t_frames = 2, variant.pop("frames", 30)
    cfg = tiny_config(num_memory_layers=4, input_dim=raw_dim * (2 * splice + 1),
                      splice_left=splice, splice_right=splice, **variant)
    params = ready_params(cfg)
    x = model_input(cfg, RNG.uniform(-2, 2, (t_frames, raw_dim)))
    labels = RNG.integers(0, cfg.num_classes, t_frames)
    for pieces in literal_pieces(t_frames):
        params.zero_grads()
        want = {p.name: np.zeros_like(p.value) for p in params.parameters()}
        for i, (rows, window) in enumerate(pieces):
            cache, _ = forward(params, cfg, x, rows=rows)
            scale = 1.0 / (i + 1)
            loss = backward(params, cfg, cache, labels, loss_scale=scale, grad_window=window)
            assert loss == backward_literal(params, cfg, cache, labels, want, scale, window)
        for p in params.parameters():
            assert np.array_equal(p.grad, want[p.name]), (pieces, p.name)


def stacked_rows_literal(x, k, starts):
    """Row t of x's delayed tap: x[t - k] when row t - k belongs to the
    same utterance as row t, else a zero row. x stacks utterances whose
    second and later ones begin at the rows in `starts`; k != 0."""
    out = _rows(x, -k, x.shape[0] - k)
    for s in starts:
        # the rows whose source lies across the edge at s: the k rows from s
        # for a past tap, the -k rows before s for a future one
        out[max(0, min(s, s + k)) : max(s, s + k)] = 0.0
    return out


def scoring_forward_literal(params, cfg, x, lengths):
    """`forward(..., lengths=)` written out on whole arrays: a zero-padded
    copy of every tap, the rows across an utterance edge zeroed in it, and
    a fresh array for every stage. Returns the logits, each memory layer's
    relu input and each one's output after any shortcut."""
    starts = list(itertools.accumulate(lengths[:-1]))
    h = relu(affine(x, params.input_w.value, params.input_b.value))
    outs = [relu(affine(h, params.proj_w.value, params.proj_b.value))]
    sums = []
    for l, (taps, src) in enumerate(model_mod._wiring(params, cfg)):
        pre = affine(outs[l], params.layer_w[l].value, params.layer_b[l].value)
        z = pre
        for shared, k in taps:
            tap = stacked_rows_literal(pre, k, starts)
            z = z + (tap * shared.value if cfg.shared_weight_form == "diagonal"
                     else tap @ shared.value)
        sums.append(z)
        out = relu(z)
        outs.append(out if src is None else out + outs[src])
    h = relu(affine(outs[-1], params.out1_w.value, params.out1_b.value))
    return affine(h, params.out2_w.value, params.out2_b.value), sums, outs[1:]


# groups of 1-frame utterances, utterances shorter than the first layer's
# delay of 4 and longer ones, the short ones first, last and in between
SCORED_GROUPS = [[1, 3, 1, 30, 2, 9], [30, 1], [1], [2, 1, 1, 3], [12, 4]]


@pytest.mark.parametrize("variant", TRIM_VARIANTS, ids=lambda v: "-".join(map(str, v.values())))
def test_scoring_forward_equals_the_padded_formulation_bit_for_bit(variant):
    # the in-place taps leave the sign of an exact zero free, which
    # np.array_equal does not see
    cfg = tiny_config(num_memory_layers=4, **variant)
    params = ready_params(cfg)
    for lengths in SCORED_GROUPS:
        x = RNG.uniform(-2, 2, (sum(lengths), cfg.input_dim))
        want, sums, outs = scoring_forward_literal(params, cfg, x, lengths)
        assert np.array_equal(forward(params, cfg, x, lengths=lengths), want), lengths
    # on one utterance, training and a one-chunk stream (the carry path) run
    # the same memory-layer body as scoring
    for t_frames in (1, 3, 30):
        x = RNG.uniform(-2, 2, (t_frames, cfg.input_dim))
        want, sums, outs = scoring_forward_literal(params, cfg, x, [t_frames])
        cache, logits = forward(params, cfg, x)
        assert np.array_equal(logits, want), t_frames
        for mask, z in zip(cache.layer_mask, sums, strict=True):
            assert mask.dtype == bool and np.array_equal(mask, z > 0.0), t_frames
        for got, literal in zip(map(cache.output, range(1, len(cache.spans))), outs, strict=True):
            assert np.array_equal(got, literal), t_frames
        assert np.array_equal(streaming_forward(params, cfg, x, t_frames, 0), want), t_frames


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: "-".join(v.values()))
def test_the_passes_read_the_form_from_the_transform_shape(variant):
    # an unknown form string set after the parameters are built changes no bit
    # of a training forward and backward, a scoring forward or a stream
    cfg = tiny_config(num_memory_layers=4, **variant)
    params = ready_params(cfg)
    unknown = copy.copy(cfg)
    unknown.shared_weight_form = "no such form"
    x = RNG.uniform(-2, 2, (30, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, 30)
    results = []
    for c in (cfg, unknown):
        params.zero_grads()
        cache, logits = forward(params, c, x, rows=(4, 20))
        backward(params, c, cache, labels, grad_window=(6, 18))
        results.append([logits, *(p.grad.copy() for p in params.parameters()),
                        forward(params, c, np.concatenate([x, x[:7]]), lengths=[30, 7]),
                        streaming_forward(params, c, x, 7, 5)])
    for got, want in zip(*results, strict=True):
        assert got.tobytes() == want.tobytes()


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
        assert len(cache.layer_mask[l]) == len(cache.output(l + 1)) == length(l + 1)
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


def assert_gradients_pass(params, cfg, x, labels):
    """`check_gradients` with `grad_check_resolved` passes at GRAD_BOUND, in
    one sweep. An entry below spacing(loss) / epsilon / GRAD_BOUND is not
    compared, since the difference's rounding alone could take its
    relative error past the bound; most entries must still be compared, and
    few of those left out may have an analytic gradient of spacing(loss) /
    epsilon or more, which a difference can tell from zero."""
    worst, unchecked = check_gradients(params, cfg, x, labels, checker=grad_check_resolved)
    zero = np.spacing(xent_loss(forward(params, cfg, x, lengths=[len(x)]), labels)) / 1e-5
    g = np.abs(np.concatenate([p.grad.reshape(-1) for p in params.parameters()]))
    resolvable = np.count_nonzero((g >= zero) & (g < zero / GRAD_BOUND))
    assert worst < GRAD_BOUND
    assert unchecked <= param_count(cfg) // 2 and resolvable <= param_count(cfg) // 50


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_gradients_pass_finite_difference_check(variant):
    cfg = tiny_config(**variant)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (7, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, 7)
    assert_gradients_pass(params, cfg, x, labels)


def test_gradients_pass_without_residual_and_without_delay():
    for kw in (dict(residual_interval=None), dict(delay_enabled=False)):
        cfg = tiny_config(**kw)
        params = ready_params(cfg)
        x = RNG.uniform(-2, 2, (7, cfg.input_dim))
        labels = RNG.integers(0, cfg.num_classes, 7)
        assert_gradients_pass(params, cfg, x, labels)


def test_corrupted_gradient_fails_the_check():
    cfg = tiny_config()
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (7, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, 7)
    assert check_gradients(params, cfg, x, labels, corrupt=True) > 1e-2
    assert check_gradients(params, cfg, x, labels, corrupt=True,
                           checker=grad_check_resolved)[0] > 1e-2


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_the_check_sees_an_error_in_the_smallest_entry_it_checks(variant):
    # the smallest analytic entry at twice the rule's floor, off by ten times
    # the bound, fails the check
    cfg = tiny_config(**variant)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (7, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, 7)

    def mutated(f, ps, epsilon):
        floor = 2.0 * float(np.spacing(abs(f()))) / epsilon / GRAD_BOUND
        _, n, i = min((abs(g), n, i) for n, p in enumerate(ps)
                      for i, g in enumerate(p.grad.reshape(-1)) if abs(g) >= floor)
        ps[n].grad.reshape(-1)[i] *= 1.0 + 10 * GRAD_BOUND
        return grad_check_resolved(f, ps, epsilon)

    assert check_gradients(params, cfg, x, labels, checker=mutated)[0] > GRAD_BOUND


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


def assert_shortcuts(params, cfg, x, sources):
    """In a training forward over x, every layer's mask is its literal relu
    input z > 0 and its output is relu(z) exactly, plus outs[j] for a layer
    numbered n (from 1) with sources[n] = j, where outs = [projection
    output] + layer outputs."""
    cache, _ = forward(params, cfg, x)
    _, sums, _ = scoring_forward_literal(params, cfg, x, [len(x)])
    outs = [cache.output(j) for j in range(len(cache.spans))]
    for n, (z, mask, out) in enumerate(zip(sums, cache.layer_mask, outs[1:], strict=True),
                                       start=1):
        assert np.array_equal(mask, z > 0.0), f"layer {n}"
        expected = np.maximum(z, 0.0)
        if n in sources:
            expected = expected + outs[sources[n]]
        assert np.array_equal(out, expected), f"layer {n}"


def test_residual_shortcut_is_exact_identity():
    cfg = tiny_config(num_memory_layers=4, residual_interval=2)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (8, cfg.input_dim))
    # each shortcut adds the previous shortcut's output (the projection for
    # the first block)
    assert_shortcuts(params, cfg, x, {2: 0, 4: 2})


def test_trailing_partial_block_gets_no_shortcut():
    cfg = tiny_config(num_memory_layers=5, residual_interval=3)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (6, cfg.input_dim))
    # layers 4 and 5 are plain relu(sum)
    assert_shortcuts(params, cfg, x, {3: 0})


def pass_outputs(params, cfg, x, labels):
    """The training logits, the gradients of one backward over them, and
    the scoring logits of x: everything a wiring plan decides."""
    params.zero_grads()
    cache, logits = forward(params, cfg, x)
    backward(params, cfg, cache, labels)
    grads = [p.grad.copy() for p in params.parameters()]
    return logits, grads, forward(params, cfg, x, lengths=[len(x)])


def assert_same_outputs(a, b):
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[2], b[2])
    assert all(np.array_equal(g, h) for g, h in zip(a[1], b[1]))


@pytest.mark.parametrize("name, value", [("residual_interval", 1), ("residual_interval", None),
                                         ("delay_enabled", False)])
def test_a_config_changed_between_calls_is_followed_by_the_next_call(name, value):
    # each pass works its wiring out from the config it is given, and an
    # RMNConfig is mutable: the next call must follow a changed field
    cfg = tiny_config(num_memory_layers=4, residual_interval=2)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (12, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, 12)
    before = pass_outputs(params, cfg, x, labels)
    setattr(cfg, name, value)
    fresh = RMNConfig(**vars(cfg))
    after = pass_outputs(params, cfg, x, labels)
    assert_same_outputs(after, pass_outputs(ready_params(fresh), fresh, x, labels))
    assert not np.array_equal(after[0], before[0])


@pytest.mark.parametrize("name, value", [("residual_interval", 1), ("residual_interval", None),
                                         ("delay_enabled", False)])
def test_backward_follows_the_wiring_of_the_forward_that_built_its_cache(name, value):
    # the cache carries its forward's wiring: a field changed on the same
    # RMNConfig between forward and backward does not reach the gradients
    cfg = tiny_config(num_memory_layers=4, residual_interval=2)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (12, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, 12)
    want = pass_outputs(params, cfg, x, labels)[1]
    params.zero_grads()
    cache, _ = forward(params, cfg, x)
    setattr(cfg, name, value)
    backward(params, cfg, cache, labels)
    assert all(np.array_equal(p.grad, g) for p, g in zip(params.parameters(), want))
    # the changed field does change the gradients of a pass that follows it
    changed = pass_outputs(params, cfg, x, labels)[1]
    assert not all(np.array_equal(g, h) for g, h in zip(changed, want))


@pytest.mark.parametrize("form", ["diagonal", "full"])
def test_a_replaced_or_copied_shared_transform_is_read_by_the_next_call(form):
    cfg = tiny_config(direction="bi", shared_weight_form=form)
    x = RNG.uniform(-2, 2, (12, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, 12)
    params = ready_params(cfg)
    pass_outputs(params, cfg, x, labels)
    # a deep copy, changed in place afterwards, reads its own values
    copied, want = copy.deepcopy(params), ready_params(cfg)
    copied.shared_future.value += 0.25
    want.shared_future.value += 0.25
    assert_same_outputs(pass_outputs(copied, cfg, x, labels), pass_outputs(want, cfg, x, labels))
    # so does a transform given a new array, or a new Parameter
    params.shared_past.value = params.shared_past.value * 2
    want = ready_params(cfg)
    want.shared_past.value *= 2
    assert_same_outputs(pass_outputs(params, cfg, x, labels), pass_outputs(want, cfg, x, labels))
    params.shared_future = Parameter(params.shared_future.value - 1, "shared_future")
    want.shared_future.value -= 1
    assert_same_outputs(pass_outputs(params, cfg, x, labels), pass_outputs(want, cfg, x, labels))


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


def test_probe_rejects_an_input_width_the_splice_does_not_divide():
    # a spliced input of width 4 cannot hold 3 frames of one raw width
    cfg = RMNConfig(input_dim=4, num_memory_layers=2, num_classes=3, wide_dim=6, memory_dim=4,
                    splice_left=1, splice_right=1)
    with pytest.raises(DimensionError, match="input_dim 4 is not divisible by splice span 3"):
        probe_receptive_field(ready_params(cfg), cfg, t_frames=24, seed=0)


def test_probe_of_a_model_whose_logits_do_not_move_reaches_nothing():
    cfg = tiny_config(num_memory_layers=2)
    params = ready_params(cfg)
    params.input_w.value[...] = 0.0  # no input frame reaches a logit
    assert probe_receptive_field(params, cfg, t_frames=24, seed=3) == (0, 0)


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

    def counting_affine(v, w, b, **kwargs):
        rows[id(w)] = rows.get(id(w), 0) + v.shape[0]
        return affine(v, w, b, **kwargs)

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
    # a Carry holds the projection output, each layer's pre-activation and
    # the outputs a shortcut reads; the wide input block's output and the
    # relu inputs, which only a backward pass reads, are never buffered, and
    # no ForwardCache is built. At residual_interval 2 the sources among the
    # 8 layer outputs are outs[2], outs[4] and outs[6]: 1 + 8 + 3 buffers of
    # the utterance's rows, and besides them the logits and one buffer's
    # worth of window arrays at most; a carry of every output (1 + 2 * 8
    # buffers) would not fit under that bound
    cfg = tiny_config(input_dim=4, wide_dim=64, memory_dim=8, num_memory_layers=8)
    params = ready_params(cfg)
    t_frames = 3000
    x = np.random.default_rng(5).uniform(-2, 2, (t_frames, cfg.input_dim))
    buffer = 8 * t_frames * cfg.memory_dim
    carried = buffer * (1 + 2 * cfg.num_memory_layers)
    unread = 8 * t_frames * (cfg.wide_dim + cfg.memory_dim * cfg.num_memory_layers)
    tracemalloc.start()
    try:
        streaming_forward(params, cfg, x, chunk_size=50, lookahead=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < carried + unread / 2, (peak, carried, unread)
    logits = 8 * t_frames * cfg.num_classes
    assert peak < buffer * (1 + 8 + 3) + logits + buffer, (peak, buffer)

    def no_cache(*args, **kwargs):
        raise AssertionError("streaming built a ForwardCache")

    monkeypatch.setattr(model_mod, "ForwardCache", no_cache)
    for direction in ("uni", "bi"):
        cfg = tiny_config(direction=direction)
        x = np.random.default_rng(6).uniform(-2, 2, (40, cfg.input_dim))
        streaming_forward(ready_params(cfg), cfg, x, chunk_size=7, lookahead=3)


def stream_windows(params, cfg, x, chunk, lookahead):
    """`streaming_forward`'s windows on one Carry, checked as the streaming
    tests check them: each chunk's logits against a forward over its
    context window. Returns the carry and each window's first new row of
    every span entry."""
    t_frames = len(x)
    carry, firsts = Carry(t_frames), []
    for start in range(0, t_frames, chunk):
        end = min(start + chunk, t_frames)
        width = min(t_frames, end + lookahead)
        got = forward(params, cfg, x[:width], rows=(start, end), carry=carry)
        _, want = forward(params, cfg, x[:width])
        assert rel_max(got, want[start:end]) < 1e-12, (chunk, lookahead, start)
        firsts.append(list(carry._first))
    return carry, firsts


@pytest.mark.parametrize("interval, outputs", [
    (1, ["out0", "out1", "out2", "out3", "out4"]),  # every output but the last is a source
    (2, ["out1", "out3"]),
    (3, ["out2"]),
    (None, []),
])
@pytest.mark.parametrize("direction", ["uni", "bi"])
def test_a_carry_buffers_the_projection_each_pre_activation_and_the_shortcut_sources(
        interval, outputs, direction):
    # outs[j] = out<j - 1> is a shortcut source when a block of `interval`
    # layers follows it; the next layer reads any other output only on the
    # rows a window computes
    cfg = tiny_config(num_memory_layers=6, direction=direction, residual_interval=interval)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (30, cfg.input_dim))
    carry, _ = stream_windows(params, cfg, x, 4, 3)
    assert sorted(carry._buffers) == sorted(["proj_post", *(f"pre{l}" for l in range(6)),
                                             *outputs])


@pytest.mark.parametrize("chunk", [1, 7])
def test_bidirectional_streaming_reads_carried_shortcut_rows(chunk):
    # interval 3 with 7 layers: layer 6 adds outs[3]. A row of outs[3] is
    # final once 18 frames after it lie in the window (the delays of layers
    # 1-3, each mirrored ahead), a row of outs[6] once 27 do. So with a
    # lookahead from 18 up to the future reach of 28, each window computes
    # outs[6] from 27 rows before its end, and its shortcut reads rows of
    # outs[3] that an earlier window finished and the carry holds
    cfg = tiny_config(num_memory_layers=7, direction="bi", residual_interval=3)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (40, cfg.input_dim))
    assert model_mod._wiring(params, cfg)[5][1] == 3
    future = receptive_field(cfg)[1]
    assert future == 28
    for lookahead in (18, 22, future - 1):
        carry, firsts = stream_windows(params, cfg, x, chunk, lookahead)
        assert "out2" in carry._buffers
        assert any(first[6] < first[3] for first in firsts), lookahead


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
    # the input check of forward, naming the input's shape, not a window's
    for bad, error in ((np.float64(5.0), InputError), (np.zeros(3), InputError),
                       (np.zeros((2, 4, cfg.input_dim)), InputError),
                       (np.zeros((4, cfg.input_dim + 1)), DimensionError)):
        with pytest.raises(error, match=re.escape(str(np.shape(bad)))):
            streaming_forward(params, cfg, bad, 2, 0)


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


INPUT_B_LINE = "'param input_b <ndim> <dim>...'"


@pytest.mark.parametrize("old, new, mentions", [
    ("input_dim 6\n", "input_dim 1e3\n", "header key 'input_dim': "),
    ("input_dim 6\n", "input_dim\n", "header key 'input_dim': "),
    ("param input_b 1 8\n", "param input_b x 8\n", INPUT_B_LINE),
    ("param input_b 1 8\n", "param\n", INPUT_B_LINE),
    ("param input_b 1 8\n", "param input_b 1 8 7\n", INPUT_B_LINE),
    ("param input_b 1 8\n", "param input_b 1 7\n",
     "parameter 'input_b' shape (7,) != expected (8,)"),
])
def test_checkpoint_header_errors_name_the_key_or_parameter(tmp_path, old, new, mentions):
    cfg = tiny_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(Model(cfg, ready_params(cfg)), path)
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")) as err:
        load_checkpoint(path)
    assert mentions in str(err.value)


def test_checkpoint_ending_before_a_parameter_line_is_truncated(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(Model(cfg, ready_params(cfg)), path)
    text = path.read_text()
    path.write_text(text[: text.index("param input_b")])
    with pytest.raises(ValueError, match=re.escape(f"{path}: truncated checkpoint")):
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
                                    "blank row in the second block", "short first row",
                                    "short first row of the second block"])
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
    elif damage.startswith("short"):
        row = first + {"short row in the third block": 2 * BLOCK + 3, "short first row": 0,
                       "short first row of the second block": BLOCK}[damage]
        lines[row] = lines[row].rsplit(" ", 1)[0] + "\n"
    elif damage == "blank row in the second block":
        lines[first + BLOCK + 7] = "\n"
    else:
        row = first + BLOCK + 7
        values = lines[row].split()
        values[1] = "nan"
        lines[row] = " ".join(values) + "\n"
    path.write_text("".join(lines))
    width = cfg.wide_dim
    cause = {"short row in the third block": f"row {2 * BLOCK + 3}: row has",
             "short first row": f"row 0: row has {width - 1} columns, expected {width}",
             "short first row of the second block": f"row {BLOCK}: row has {width - 1} columns",
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


# --- a group of equal-shaped pieces in one pass ------------------------------


@pytest.mark.parametrize("variant", TRIM_VARIANTS, ids=lambda v: "-".join(map(str, v.values())))
@pytest.mark.parametrize("rows, window", [(None, None), ((4, 20), (6, 18)), ((0, 1), None)])
def test_a_group_of_pieces_is_the_pieces_one_after_another_bit_for_bit(variant, rows, window):
    # forward(pieces=B) and its backward give every piece's logits and cache
    # rows, and the gradients of B calls on the pieces alone, in piece order
    cfg = tiny_config(num_memory_layers=4, **variant)
    params = ready_params(cfg)
    xs = [RNG.uniform(-2, 2, (30, cfg.input_dim)) for _ in range(3)]
    labels = [RNG.integers(0, cfg.num_classes, 30) for _ in range(3)]
    params.zero_grads()
    alone = []
    for x, y in zip(xs, labels):
        cache, logits = forward(params, cfg, x, rows=rows)
        alone.append((cache, logits))
        backward(params, cfg, cache, y, loss_scale=0.3, grad_window=window)
    want = [p.grad.copy() for p in params.parameters()]
    params.zero_grads()
    group, logits = forward(params, cfg, np.concatenate(xs), rows=rows, pieces=3)
    for name in ("input_post", "proj_post", "out1_post", "logits"):
        assert np.array_equal(getattr(group, name),
                              np.concatenate([getattr(c, name) for c, _ in alone])), name
    for name in ("layer_pre", "layer_mask"):
        for l, got in enumerate(getattr(group, name)):
            assert np.array_equal(got, np.concatenate([getattr(c, name)[l] for c, _ in alone]))
    for j in range(1, len(group.spans)):
        assert np.array_equal(group.output(j), np.concatenate([c.output(j) for c, _ in alone]))
    assert np.array_equal(logits, np.concatenate([lg for _, lg in alone]))
    backward(params, cfg, group, np.concatenate(labels), loss_scale=0.3, grad_window=window)
    for p, w in zip(params.parameters(), want, strict=True):
        assert p.grad.tobytes() == w.tobytes(), p.name


def test_pieces_must_split_the_input_evenly_and_train():
    cfg = tiny_config()
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (10, cfg.input_dim))
    with pytest.raises(InputError, match="10 frames do not split into 3 equal pieces"):
        forward(params, cfg, x, pieces=3)
    with pytest.raises(ValueError, match="pieces cannot be combined"):
        forward(params, cfg, x, pieces=2, lengths=[5, 5])
    cache, _ = forward(params, cfg, x, pieces=2)
    with pytest.raises(ConsistencyError, match="cached sequence of 10 frames"):
        backward(params, cfg, cache, np.zeros(5, dtype=np.int64))


def test_a_plain_forward_cache_survives_later_calls():
    # without buffers every array is fresh: a later forward and backward
    # leave an earlier cache's gradients as they were
    cfg = tiny_config(direction="bi")
    params = ready_params(cfg)
    x, other = RNG.uniform(-2, 2, (2, 20, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, 20)
    cache, logits = forward(params, cfg, x)
    kept = logits.copy()
    params.zero_grads()
    backward(params, cfg, cache, labels)
    want = [p.grad.copy() for p in params.parameters()]
    later, _ = forward(params, cfg, other)
    backward(params, cfg, later, labels)
    params.zero_grads()
    backward(params, cfg, cache, labels)
    assert np.array_equal(cache.logits, kept)
    assert all(np.array_equal(p.grad, w) for p, w in zip(params.parameters(), want))


def test_buffers_hand_out_views_of_the_new_buffer_once_a_name_grows():
    buffers = model_mod._Buffers()
    small = buffers.take("a", (2, 3))
    assert buffers.take("a", (2, 3)) is small
    assert np.shares_memory(buffers.take("a", (3, 2)), small)
    big = buffers.take("a", (4, 5))  # grows the buffer
    assert not np.shares_memory(big, small)
    again = buffers.take("a", (2, 3))
    assert again is not small and np.shares_memory(again, big)
    assert not np.shares_memory(buffers.take("b", (2, 3)), big)


def test_a_bool_buffer_name_gets_memory_of_its_own():
    buffers = model_mod._Buffers()
    floats = buffers.take("a", (4, 5))
    mask = buffers.take("a", (4, 5), bool)
    assert floats.dtype == np.float64 and mask.dtype == bool
    assert not np.shares_memory(mask, floats)
    assert buffers.take("a", (4, 5), bool) is mask and buffers.take("a", (4, 5)) is floats
    # a training pass's masks lie apart from every float array of its cache
    cfg = tiny_config(num_memory_layers=4)
    cache, _ = forward(ready_params(cfg), cfg, RNG.uniform(-2, 2, (24, cfg.input_dim)), pieces=2,
                       buffers=buffers)
    floats = [cache.x, cache.input_post, cache.proj_post, *cache.layer_pre,
              *map(cache.output, range(1, len(cache.spans))), cache.out1_post, cache.logits]
    for l, m in enumerate(cache.layer_mask):
        assert m.dtype == bool and not any(np.shares_memory(m, a) for a in floats), l


def test_a_relu_input_of_exactly_zero_is_masked_out():
    # the subgradient at 0 is 0: a memory layer with zero weights, bias and
    # shared transform has relu input 0 everywhere, so no gradient crosses it
    cfg = tiny_config(residual_interval=None)
    params = ready_params(cfg)
    for p in (params.layer_w[1], params.layer_b[1], params.shared_past):
        p.value[...] = 0.0
    x = RNG.uniform(-2, 2, (9, cfg.input_dim))
    cache, _ = forward(params, cfg, x)
    assert not cache.layer_mask[1].any() and not cache.output(2).any()
    params.zero_grads()
    backward(params, cfg, cache, RNG.integers(0, cfg.num_classes, 9))
    below = [params.input_w, params.proj_w, params.layer_w[0], params.layer_w[1]]
    assert not any(p.grad.any() for p in below)


@pytest.mark.parametrize("variant", TRIM_VARIANTS, ids=lambda v: "-".join(map(str, v.values())))
@pytest.mark.parametrize("pieces", [1, 3])
def test_a_training_cache_holds_its_arrays_in_the_analytic_byte_count(variant, pieces):
    # float64 rows of the stage arrays and of each memory layer's pre-activation,
    # one byte per entry of each layer's relu mask, and float64 rows of the
    # layer outputs a shortcut reads (outs[j] for j = n, 2n, ... with a block
    # of n layers after it) and of the last one; no other output is held
    cfg = tiny_config(num_memory_layers=4, **variant)
    x = RNG.uniform(-2, 2, (pieces * 30, cfg.input_dim))
    cache, _ = forward(ready_params(cfg), cfg, x, rows=(8, 20), pieces=pieces)
    rows = [pieces * (b - a) for a, b in cache.spans]
    m, wide, classes = cfg.memory_dim, cfg.wide_dim, cfg.num_classes
    n = cfg.residual_interval
    held = {4} | {j for j in range(1, 4) if n is not None and j % n == 0 and j + n <= 4}
    assert [j for j, out in enumerate(cache.layer_out, start=1) if out is not None] == sorted(held)
    layers = sum(8 * rows[l] * m + rows[l + 1] * m for l in range(4)) + sum(8 * rows[j] * m
                                                                           for j in held)
    assert sum(a.nbytes for a in cache.layer_pre + cache.layer_mask
               + [out for out in cache.layer_out if out is not None]) == layers
    stages = x.nbytes + 8 * rows[0] * (wide + m) + 8 * rows[-1] * (wide + classes)
    assert sum(a.nbytes for a in (cache.x, cache.input_post, cache.proj_post, cache.out1_post,
                                  cache.logits)) == stages


@pytest.mark.parametrize("variant", TRIM_VARIANTS + [dict(v, memory_dim=33) for v in BLOCKED_VARIANTS]
                         + BLOCKED_VARIANTS, ids=lambda v: "-".join(map(str, v.values())))
@pytest.mark.parametrize("pieces", [1, 3])
def test_an_output_the_cache_does_not_hold_is_rebuilt_bit_for_bit(variant, pieces, monkeypatch):
    # every layer output the training forward made, over the logit rows, one
    # row and a few rows, equals the cache's rebuild of those rows: also at
    # widths where a GEMM of other rows rounds a row differently
    variant = dict(variant)
    t_frames = variant.pop("frames", 30)
    cfg = tiny_config(num_memory_layers=4, **variant)
    made = []

    def recording(*args, **kwargs):
        out = body(*args, **kwargs)
        made.append(out.copy())
        return out

    body = model_mod._layer_body
    monkeypatch.setattr(model_mod, "_layer_body", recording)
    x = RNG.uniform(-2, 2, (pieces * t_frames, cfg.input_dim))
    cache, _ = forward(ready_params(cfg), cfg, x, rows=(8, 20), pieces=pieces)
    outs = made[:4]  # the forward's; each rebuild below appends its own
    for j in range(1, 5):
        a = cache.spans[j][0]
        for lo, hi in [(8, 20), (11, 12), (9, 14)]:
            want = outs[j - 1].reshape(pieces, -1, cfg.memory_dim)[:, lo - a : hi - a]
            assert np.array_equal(cache.output(j, (lo, hi)), want.reshape(-1, cfg.memory_dim)), j


@pytest.mark.parametrize("memory_dim", [4, 130])
@pytest.mark.parametrize("direction", ["uni", "bi"])
@pytest.mark.parametrize("pieces", [1, 5])
def test_tiled_and_broadcast_diagonal_taps_give_the_same_bits(memory_dim, direction, pieces,
                                                             monkeypatch):
    # training passes with pieces 1 and 5, and scoring: the tap products tiled
    # (`numerics._NARROW_ROW` above the width) or broadcast (below it)
    cfg = tiny_config(direction=direction, memory_dim=memory_dim, num_memory_layers=4)
    params = ready_params(cfg)
    x = RNG.uniform(-2, 2, (pieces * 12, cfg.input_dim))
    labels = RNG.integers(0, cfg.num_classes, len(x))

    def outputs():
        params.zero_grads()
        cache, logits = forward(params, cfg, x, rows=(2, 10), pieces=pieces)
        backward(params, cfg, cache, labels, grad_window=(3, 9))
        scored = forward(params, cfg, x, lengths=[5, len(x) - 5])
        return [a.tobytes() for a in [logits, scored] + [p.grad for p in params.parameters()]]

    runs = []
    for narrow in (0, 10**9):
        monkeypatch.setattr(numerics_mod, "_NARROW_ROW", narrow)
        runs.append(outputs())
    assert runs[0] == runs[1]


def test_buffers_hand_each_name_the_same_memory_from_call_to_call():
    # fit's buffers: a second step's arrays overwrite the first's, so a
    # cache built with them serves one backward
    cfg = tiny_config()
    params = ready_params(cfg)
    buffers = model_mod._Buffers()
    x = RNG.uniform(-2, 2, (24, cfg.input_dim))
    first, _ = forward(params, cfg, x, pieces=2, buffers=buffers)
    second, _ = forward(params, cfg, x[:12], pieces=2, buffers=buffers)
    assert np.shares_memory(first.layer_pre[0], second.layer_pre[0])
    assert np.shares_memory(first.logits, second.logits)
    fresh, _ = forward(params, cfg, x, pieces=2)
    assert not np.shares_memory(fresh.logits, second.logits)
