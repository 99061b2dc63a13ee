"""Training loop: schedule arithmetic, minibatch slicing, the SGD update,
evaluation bookkeeping and the end-to-end fit driver."""

import tracemalloc

import numpy as np
import pytest

from rmnlab import data as data_mod
from rmnlab.data import Corpus, Utterance, gen_delayed_recall
from rmnlab import model as model_mod
from rmnlab.model import (
    Model,
    RMNConfig,
    init_params,
    load_checkpoint,
    randomize_params,
    save_checkpoint,
)
from rmnlab.numerics import DimensionError, LabelError, NumericError, Parameter, xent_loss
from rmnlab.trainer import (
    METRICS_HEADER,
    BatchPiece,
    EpochStats,
    TrainConfig,
    check_corpus,
    evaluate,
    evaluate_streaming,
    fit,
    format_stats_row,
    lr_for_epoch,
    make_minibatches,
    sgd_step,
)
from rmnlab import numerics as numerics_mod
from rmnlab import trainer as trainer_mod
from rmnlab.model import delay_span, forward, model_input, streaming_forward

from reference_model import named_grads, ref_backward, ref_forward, rel_max

RNG = np.random.default_rng(77)


def small_model(**kw):
    base = dict(
        input_dim=4,
        num_memory_layers=2,
        num_classes=3,
        wide_dim=6,
        memory_dim=4,
        residual_interval=2,
    )
    base.update(kw)
    cfg = RMNConfig(**base)
    params = init_params(cfg, 0)
    randomize_params(params, 21)
    return Model(cfg, params)


def random_corpus(n_utts, t_frames, dim=4, num_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    utts = [
        Utterance(
            f"u{n}",
            rng.normal(size=(t_frames, dim)),
            rng.integers(0, num_classes, size=t_frames),
        )
        for n in range(n_utts)
    ]
    return Corpus(utts, feature_dim=dim, num_classes=num_classes)


# --- config validation ---------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(schedule="linear")
    with pytest.raises(ValueError):
        TrainConfig(base_lr=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(halve_factor=0.0)
    with pytest.raises(ValueError):
        TrainConfig(halve_factor=1.0)
    with pytest.raises(ValueError):
        TrainConfig(l2=-1e-4)
    with pytest.raises(ValueError):
        TrainConfig(max_utts_per_batch=0)
    with pytest.raises(ValueError):
        TrainConfig(truncation_chunk=0)
    with pytest.raises(ValueError):
        TrainConfig(ramp_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(peak_lr=-1.0)
    with pytest.raises(ValueError, match="peak_lr"):
        TrainConfig(base_lr=0.5, peak_lr=0.4)
    with pytest.raises(ValueError, match="max_epochs must be >= 1"):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValueError, match="max_epochs must be >= 1"):
        TrainConfig(max_epochs=-3)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainConfig(seed=-1)
    TrainConfig(schedule="constant_then_halve", ramp_epochs=0)
    TrainConfig(schedule="constant_then_halve", base_lr=0.5, peak_lr=0.4)
    TrainConfig(base_lr=0.5, peak_lr=0.5)
    TrainConfig(truncation_chunk=None)
    TrainConfig(base_lr=0.0)  # explicit smoke-run support
    TrainConfig(max_epochs=1, seed=0)


# --- learning rate schedule ----------------------------------------------------


def test_ramp_schedule_first_five_epochs_exact():
    config = TrainConfig()  # base 0.2, peak 1.0, ramp_epochs 4
    rates = [lr_for_epoch(config, e, []) for e in range(1, 6)]
    assert rates == [0.2, 0.4, 0.6000000000000001, 0.8, 1.0]
    assert rates[0] == pytest.approx(0.2, abs=0.0)
    assert rates[4] == pytest.approx(1.0, abs=0.0)
    for e, want in zip(range(1, 6), (0.2, 0.4, 0.6, 0.8, 1.0)):
        assert lr_for_epoch(config, e, []) == pytest.approx(want, rel=1e-15)


def test_ramp_schedule_ignores_history_during_ramp():
    config = TrainConfig()
    degrading = [5.0, 6.0, 7.0, 8.0]
    assert lr_for_epoch(config, 5, degrading) == pytest.approx(1.0)


def test_single_degradation_halves_exactly_once():
    config = TrainConfig()
    # epochs 1..6 done; epoch-5 CE rose above epoch-4, nothing else rose
    history = [2.5, 2.0, 1.8, 1.7, 1.75, 1.6]
    assert lr_for_epoch(config, 7, history) == pytest.approx(0.5)


def test_every_degradation_halves_again():
    config = TrainConfig()
    # epoch-5 CE rose above epoch-4 and epoch-6 rose above epoch-5: the
    # rate is halved once per degradation
    history = [2.5, 2.0, 1.8, 1.7, 1.75, 1.8]
    assert lr_for_epoch(config, 7, history) == pytest.approx(0.25)
    assert lr_for_epoch(config, 8, history + [1.7]) == pytest.approx(0.25)


def test_halved_rate_is_carried_forward():
    config = TrainConfig()
    history = [2.5, 2.0, 1.8, 1.7, 1.75, 1.6, 1.5, 1.45]
    # one degradation long ago: every later epoch keeps the halved rate
    assert lr_for_epoch(config, 9, history) == pytest.approx(0.5)


def test_constant_schedule_halving_starts_after_two_epochs():
    config = TrainConfig(schedule="constant_then_halve", base_lr=0.8)
    assert lr_for_epoch(config, 1, []) == pytest.approx(0.8)
    assert lr_for_epoch(config, 2, [3.0]) == pytest.approx(0.8)
    assert lr_for_epoch(config, 3, [3.0, 3.5]) == pytest.approx(0.4)
    assert lr_for_epoch(config, 4, [3.0, 3.5, 3.4]) == pytest.approx(0.4)


def test_lr_for_epoch_rejects_epoch_zero():
    with pytest.raises(ValueError):
        lr_for_epoch(TrainConfig(), 0, [])


# --- minibatch construction ----------------------------------------------------


def test_minibatches_group_sizes():
    corpus = random_corpus(25, t_frames=10)
    batches = make_minibatches(corpus, max_utts=10, truncation_chunk=None, seed=0)
    assert [len(b[0]) for b in batches] == [10, 10, 5]
    # full-sequence mode: one step per batch, pieces span whole utterances
    for batch in batches:
        assert len(batch) == 1
        for piece in batch[0]:
            assert (piece.chunk_start, piece.chunk_end) == (0, 10)


def test_minibatches_chunk_boundaries():
    corpus = random_corpus(3, t_frames=600)
    batches = make_minibatches(corpus, max_utts=10, truncation_chunk=256, seed=1)
    assert len(batches) == 1
    steps = batches[0]
    assert len(steps) == 3
    spans = [(p.chunk_start, p.chunk_end) for p in steps[0]]
    assert spans == [(0, 256)] * 3
    spans = [(p.chunk_start, p.chunk_end) for p in steps[2]]
    assert spans == [(512, 600)] * 3


def test_minibatches_cover_every_frame_exactly_once():
    corpus = random_corpus(7, t_frames=23)
    batches = make_minibatches(corpus, max_utts=3, truncation_chunk=8, seed=5)
    seen = np.zeros((7, 23), dtype=int)
    for batch in batches:
        for step in batch:
            for piece in step:
                seen[piece.utt_index, piece.chunk_start : piece.chunk_end] += 1
    assert np.array_equal(seen, np.ones_like(seen))


def test_minibatches_shuffle_is_seed_deterministic():
    corpus = random_corpus(12, t_frames=5)
    a = make_minibatches(corpus, 4, None, seed=3)
    b = make_minibatches(corpus, 4, None, seed=3)
    c = make_minibatches(corpus, 4, None, seed=4)
    flat = lambda bs: [p.utt_index for b in bs for s in b for p in s]
    assert flat(a) == flat(b)
    assert flat(a) != flat(c)


def test_minibatches_reject_empty_corpus():
    corpus = Corpus([], feature_dim=1, num_classes=1)
    with pytest.raises(ValueError):
        make_minibatches(corpus, 4, None, seed=0)


# --- SGD -----------------------------------------------------------------------


def test_sgd_two_steps_follow_momentum_recurrence():
    model = small_model()
    p = model.params.layer_w[0]
    v0 = p.value.copy()
    g1 = RNG.normal(size=p.value.shape)
    g2 = RNG.normal(size=p.value.shape)
    lr, mom, l2 = 0.1, 0.9, 0.01

    p.grad[...] = g1
    sgd_step(model.params, lr, mom, l2)
    vel1 = -lr * (g1 + l2 * v0)
    val1 = v0 + vel1
    assert np.allclose(p.value, val1, rtol=1e-14, atol=0.0)
    assert np.array_equal(p.grad, np.zeros_like(g1))

    p.grad[...] = g2
    sgd_step(model.params, lr, mom, l2)
    vel2 = mom * vel1 - lr * (g2 + l2 * val1)
    val2 = val1 + vel2
    assert np.allclose(p.value, val2, rtol=1e-13, atol=1e-16)


def test_sgd_without_l2_equals_manual_decay_added_to_gradient():
    # folding l2 into the gradient must equal running without l2 after
    # adding the decay term by hand
    model_a = small_model()
    model_b = small_model()
    g = {p.name: RNG.normal(size=p.value.shape) for p in model_a.params.parameters()}
    l2 = 1e-3

    for p in model_a.params.parameters():
        p.grad[...] = g[p.name]
    sgd_step(model_a.params, 0.2, 0.9, l2)

    for p in model_b.params.parameters():
        p.grad[...] = g[p.name] + l2 * p.value
    sgd_step(model_b.params, 0.2, 0.9, 0.0)

    for pa, pb in zip(model_a.params.parameters(), model_b.params.parameters()):
        assert np.abs(pa.value - pb.value).max() < 1e-10


def test_sgd_raises_on_nonfinite_gradient():
    model = small_model()
    model.params.layer_w[0].grad[0, 0] = np.inf
    with pytest.raises(NumericError):
        sgd_step(model.params, 0.1, 0.9, 0.0)


def test_zero_lr_leaves_values_untouched():
    model = small_model()
    before = [p.value.copy() for p in model.params.parameters()]
    for p in model.params.parameters():
        p.grad[...] = RNG.normal(size=p.value.shape)
    sgd_step(model.params, 0.0, 0.9, 1e-5)
    for p, b in zip(model.params.parameters(), before):
        assert np.array_equal(p.value, b)


class ParamList:
    """Just the `parameters()` that `sgd_step` reads."""

    def __init__(self, params):
        self.params = params

    def parameters(self):
        return self.params


def sgd_literal(p, lr, momentum, l2):
    """The update written on whole arrays."""
    update = p.grad + l2 * p.value
    p.velocity *= momentum
    p.velocity -= lr * update
    p.value += p.velocity
    p.grad[...] = 0.0


def as_2d(size):
    """A 2-D shape of `size` entries, as square as its divisors allow."""
    cols = max(d for d in range(1, int(size**0.5) + 1) if size % d == 0)
    return (size // cols, cols)


BLOCK = trainer_mod._SGD_BLOCK
SGD_SIZES = (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)


@pytest.mark.parametrize("l2", [0.0, 1e-3])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_sgd_equals_the_whole_array_update_bit_for_bit(l2, momentum):
    rng = np.random.default_rng(3)
    shapes = [(n,) for n in SGD_SIZES] + [as_2d(n) for n in SGD_SIZES]
    values = [rng.normal(size=shape) for shape in shapes]
    blocked = ParamList([Parameter(v.copy(), f"p{i}") for i, v in enumerate(values)])
    whole = ParamList([Parameter(v.copy(), f"p{i}") for i, v in enumerate(values)])
    for _ in range(2):
        for pb, pw in zip(blocked.parameters(), whole.parameters()):
            pb.grad[...] = pw.grad[...] = rng.normal(size=pb.value.shape)
        sgd_step(blocked, 0.1, momentum, l2)
        for pw in whole.parameters():
            sgd_literal(pw, 0.1, momentum, l2)
        for pb, pw in zip(blocked.parameters(), whole.parameters()):
            assert np.array_equal(pb.value, pw.value), pb.name
            assert np.array_equal(pb.velocity, pw.velocity), pb.name
            assert not pb.grad.any()


def test_sgd_nonfinite_last_block_leaves_that_and_later_parameters_untouched():
    rng = np.random.default_rng(4)
    sizes = [BLOCK + 1, 3 * BLOCK + 5, 7]
    params = ParamList([Parameter(rng.normal(size=n), f"p{i}") for i, n in enumerate(sizes)])
    for p in params.parameters():
        p.grad[...] = rng.normal(size=p.value.shape)
    params.parameters()[1].grad[-1] = np.nan
    first = Parameter(params.parameters()[0].value.copy())
    first.grad[...] = params.parameters()[0].grad
    sgd_literal(first, 0.1, 0.9, 1e-3)
    kept = [(p.value.copy(), p.grad.copy()) for p in params.parameters()[1:]]

    with pytest.raises(NumericError, match="non-finite update for p1 "):
        sgd_step(params, 0.1, 0.9, 1e-3)
    assert np.array_equal(params.parameters()[0].value, first.value)
    for p, (value, grad) in zip(params.parameters()[1:], kept):
        assert np.array_equal(p.value, value), p.name
        assert np.array_equal(p.grad, grad, equal_nan=True), p.name


def test_sgd_makes_no_full_size_temporary():
    p = Parameter(np.ones(2_000_000), "big")
    p.grad[...] = 1e-3
    p.velocity
    tracemalloc.start()
    try:
        sgd_step(ParamList([p]), 0.1, 0.9, 1e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # two full-size temporaries of this parameter would take 32 MB
    assert peak < 1_000_000


def trained_model(**kw):
    """small_model with its grad and velocity buffers made as `fit` makes
    them, views of the model's flat arrays."""
    model = small_model(**kw)
    for p in model.params.parameters():
        p.grad, p.velocity
    return model


def runs_of(params):
    return [[p.name for p in run] for run, *_ in numerics_mod._runs(params.parameters())]


def own_copy(params):
    """A deep copy that shares no memory with `params`: the literal update's
    oracle."""
    import copy

    twin = copy.deepcopy(params)
    for p, q in zip(params.parameters(), twin.parameters()):
        for a, b in ((p.value, q.value), (p.grad, q.grad), (p.velocity, q.velocity)):
            assert not np.shares_memory(a, b), p.name
    return twin


def assert_sgd_equals_the_literal_update(params, chosen=None):
    """One `sgd_step` over `chosen` (all of `params` by default), against
    the literal update of an own copy, on fresh random gradients."""
    chosen = params if chosen is None else chosen
    literal = own_copy(params)
    for p, q in zip(params.parameters(), literal.parameters()):
        p.grad[...] = q.grad[...] = RNG.normal(size=p.value.shape)
    sgd_step(chosen, 0.1, 0.9, 1e-3)
    for p, q in zip(params.parameters(), literal.parameters()):
        if any(p is c for c in chosen.parameters()):
            sgd_literal(q, 0.1, 0.9, 1e-3)
    for p, q in zip(params.parameters(), literal.parameters()):
        assert p.value.tobytes() == q.value.tobytes(), p.name
        assert p.velocity.tobytes() == q.velocity.tobytes(), p.name
        assert p.grad.tobytes() == q.grad.tobytes(), p.name


@pytest.mark.parametrize("l2, momentum", [(0.0, 0.0), (1e-3, 0.9)])
def test_sgd_on_model_params_is_one_run_equal_to_the_whole_array_update(l2, momentum):
    model = trained_model(direction="bi", shared_weight_form="full")
    params = model.params
    assert runs_of(params) == [[p.name for p in params.parameters()]]
    literal = own_copy(params)
    rng = np.random.default_rng(6)
    for _ in range(2):
        for p, q in zip(params.parameters(), literal.parameters()):
            p.grad[...] = q.grad[...] = rng.normal(size=p.value.shape)
        sgd_step(params, 0.1, momentum, l2)
        for q in literal.parameters():
            sgd_literal(q, 0.1, momentum, l2)
        for p, q in zip(params.parameters(), literal.parameters()):
            assert p.value.tobytes() == q.value.tobytes(), p.name
            assert p.velocity.tobytes() == q.velocity.tobytes(), p.name
            assert not p.grad.any()


def test_sgd_nonfinite_middle_parameter_of_a_run_leaves_it_and_later_ones_untouched():
    params = trained_model(num_memory_layers=3).params
    plist = params.parameters()
    bad = plist.index(params.layer_w[1])
    rng = np.random.default_rng(9)
    for p in plist:
        p.grad[...] = rng.normal(size=p.value.shape)
    params.layer_w[1].grad[2, 1] = np.inf
    literal = own_copy(params)
    for q in literal.parameters()[:bad]:
        sgd_literal(q, 0.1, 0.9, 1e-3)
    kept = [(p.value.copy(), p.grad.copy()) for p in plist[bad:]]

    with pytest.raises(NumericError, match="non-finite update for layer2_w "):
        sgd_step(params, 0.1, 0.9, 1e-3)
    for p, q in zip(plist[:bad], literal.parameters()):
        assert p.value.tobytes() == q.value.tobytes(), p.name
        assert not p.grad.any(), p.name
    for p, (value, grad) in zip(plist[bad:], kept):
        assert np.array_equal(p.value, value), p.name
        assert np.array_equal(p.grad, grad), p.name


def test_a_deep_copy_trains_on_its_own_arrays():
    params = trained_model().params
    before = [p.value.copy() for p in params.parameters()]
    twin = own_copy(params)
    assert runs_of(twin) == runs_of(params) == [[p.name for p in params.parameters()]]
    assert_sgd_equals_the_literal_update(twin)
    for p, value in zip(params.parameters(), before):
        assert np.array_equal(p.value, value), p.name


def test_an_assigned_value_is_copied_into_the_parameters_place():
    params = trained_model().params
    names = [p.name for p in params.parameters()]
    p = params.shared_past
    held = p.value
    new = p.value + 1.0
    p.value = new
    assert p.value is held and np.array_equal(held, new) and not np.shares_memory(held, new)
    assert runs_of(params) == [names]
    assert_sgd_equals_the_literal_update(params)
    for kind in ("value", "grad", "velocity"):
        before = getattr(p, kind).copy()
        with pytest.raises(DimensionError, match=f"shared_past: {kind} of shape"):
            setattr(p, kind, np.ones(p.size + 1))
        assert np.array_equal(getattr(p, kind), before), kind


def test_a_replaced_parameter_is_a_run_of_its_own_and_trains_as_the_literal_update():
    params = trained_model(direction="bi").params
    names = [p.name for p in params.parameters()]
    i = names.index("shared_future")
    params.shared_future = Parameter(params.shared_future.value + 0.5, "shared_future")
    assert runs_of(params) == [names[:i], [names[i]], names[i + 1 :]]
    assert_sgd_equals_the_literal_update(params)


def test_a_parameters_arrays_stay_the_same_objects_through_training(tmp_path):
    # a tracer keys each weight's stage by the id of its value
    save_checkpoint(small_model(), tmp_path / "model.ckpt")
    params = load_checkpoint(tmp_path / "model.ckpt").params
    held = [(p.value, p.grad, p.velocity) for p in params.parameters()]
    for p in params.parameters():
        p.grad[...] = RNG.normal(size=p.value.shape)
    sgd_step(params, 0.1, 0.9, 1e-3)
    params.out2_w.value = params.out2_w.value * 2.0
    params.out2_w.grad = np.ones(params.out2_w.value.shape)
    for p, arrays in zip(params.parameters(), held):
        assert all(a is b for a, b in zip((p.value, p.grad, p.velocity), arrays)), p.name


def test_sgd_on_some_of_a_models_parameters_updates_each_adjacent_stretch():
    # every other parameter: neighbours in the list that are not neighbours
    # in the flat arrays are runs of their own
    params = trained_model().params
    chosen = ParamList(params.parameters()[::2])
    assert all(len(run) == 1 for run in runs_of(chosen))
    assert_sgd_equals_the_literal_update(params, chosen)


def test_an_assigned_velocity_lands_in_the_flat_view_that_fit_updates():
    train = random_corpus(6, t_frames=15, seed=1)
    valid = random_corpus(2, t_frames=15, seed=2)
    config = TrainConfig(max_epochs=1, base_lr=0.05, peak_lr=0.1, seed=3)
    assigned, written = small_model(), small_model()
    rng = np.random.default_rng(12)
    velocities = [rng.normal(size=p.value.shape) * 1e-3 for p in assigned.params.parameters()]
    for p, q, velocity in zip(assigned.params.parameters(), written.params.parameters(), velocities):
        p.velocity = velocity
        q.velocity[...] = velocity
    (_, _, _, flat_velocity), = numerics_mod._runs(assigned.params.parameters())
    assert flat_velocity.tobytes() == np.concatenate([v.reshape(-1) for v in velocities]).tobytes()
    fit(assigned, train, valid, config)
    fit(written, train, valid, config)
    for p, q in zip(assigned.params.parameters(), written.params.parameters()):
        assert p.value.tobytes() == q.value.tobytes(), p.name
        assert p.velocity.tobytes() == q.velocity.tobytes(), p.name


def test_zero_grads_clears_every_gradient_a_replaced_parameters_too():
    params = trained_model().params
    params.shared_past = Parameter(params.shared_past.value, "shared_past")
    for p in params.parameters():
        p.accumulate(np.ones((1,) + p.value.shape))
    params.zero_grads()
    assert not any(p.grad.any() for p in params.parameters())
    assert all(p.grad_to_overwrite() is p.grad for p in params.parameters())


# --- loss actually goes down ----------------------------------------------------


def test_single_step_decreases_batch_loss():
    from rmnlab.model import backward

    model = small_model()
    corpus = random_corpus(4, t_frames=12, seed=9)
    xs = [model_input(model.config, u.features) for u in corpus.utterances]

    def batch_loss():
        total = 0.0
        frames = 0
        for x, u in zip(xs, corpus.utterances):
            from rmnlab.numerics import softmax_xent

            _, logits = forward(model.params, model.config, x)
            loss, _ = softmax_xent(logits, u.labels)
            total += loss * u.num_frames
            frames += u.num_frames
        return total / frames

    for lr in (1e-2, 1e-3, 1e-4):
        before = batch_loss()
        total_frames = sum(u.num_frames for u in corpus.utterances)
        for x, u in zip(xs, corpus.utterances):
            cache, _ = forward(model.params, model.config, x)
            backward(
                model.params, model.config, cache, u.labels,
                loss_scale=u.num_frames / total_frames,
            )
        sgd_step(model.params, lr, 0.0, 0.0)
        after = batch_loss()
        if after < before:
            return
        # too-large rate can overshoot on a random model; retry smaller
    pytest.fail(f"loss did not decrease at any tried rate ({before} -> {after})")


# --- chunked training ------------------------------------------------------------


@pytest.mark.parametrize("chunk", [1, 5])
@pytest.mark.parametrize("direction", ["uni", "bi"])
def test_truncated_steps_match_the_reference_gradients(direction, chunk, monkeypatch):
    # each step's gradients, two utterances a step, against the frame-loop
    # reference run over the whole utterance with the chunk as its window
    model = small_model(direction=direction, num_memory_layers=3)
    corpus = random_corpus(2, 23, seed=5)
    steps = [step for batch in make_minibatches(corpus, 2, chunk, seed=0) for step in batch]
    checked = []

    def checking_sgd_step(params, lr, momentum, l2):
        pieces = steps[len(checked)]
        total = sum(p.chunk_end - p.chunk_start for p in pieces)
        want = {}
        for piece in pieces:
            utt = corpus.utterances[piece.utt_index]
            store, _ = ref_forward(params, model.config, utt.features)
            _, grads = ref_backward(
                params, model.config, store, utt.labels,
                loss_scale=(piece.chunk_end - piece.chunk_start) / total,
                grad_window=(piece.chunk_start, piece.chunk_end),
            )
            for name, g in named_grads(grads).items():
                want[name] = want.get(name, 0.0) + g
        worst = {p.name: rel_max(p.grad, want[p.name]) for p in params.parameters()}
        assert max(worst.values()) < 1e-12, (len(checked), worst)
        checked.append(pieces)
        sgd_step(params, lr, momentum, l2)

    monkeypatch.setattr(trainer_mod, "sgd_step", checking_sgd_step)
    examples = [(model_input(model.config, u.features), u.labels) for u in corpus.utterances]
    for step in steps:
        trainer_mod._train_step(model, examples, step, 0.05, TrainConfig())
    assert len(checked) == -(-23 // chunk)
    assert all(len(pieces) == 2 for pieces in checked)


# --- chunked forward -------------------------------------------------------------


@pytest.mark.parametrize("direction", ["uni", "bi"])
def test_chunked_forward_matches_full(direction):
    # the forward side of truncated training: past context plus the whole
    # future delay span around each chunk
    model = small_model(direction=direction)
    feats = RNG.normal(size=(50, 4))
    _, full = forward(model.params, model.config, feats)
    lookahead = delay_span(model.config) if direction == "bi" else 0
    for chunk in (1, 7, 50, 64):
        out = streaming_forward(model.params, model.config, feats, chunk, lookahead)
        assert np.abs(out - full).max() < 1e-9


# --- evaluation -------------------------------------------------------------------


SCORED_VARIANTS = [
    {},
    dict(direction="bi"),
    dict(shared_weight_form="full"),
    dict(direction="bi", shared_weight_form="full", residual_interval=1),
    dict(residual_interval=3, num_memory_layers=4),
    dict(residual_interval=None, direction="bi"),
    dict(delay_enabled=False),
    dict(splice_left=2, splice_right=1, input_dim=16),
]


def test_evaluate_is_frame_weighted():
    # utterances of unequal lengths, 1-frame ones among them, are scored in
    # groups; one utterance longer than a group's rows is a group of its own
    from rmnlab.numerics import softmax_xent

    rng = np.random.default_rng(3)
    lengths = [30, 5, 1, 12, 1, trainer_mod._GROUP_ROWS + 3, 1, 40, 7]
    utts = [Utterance(f"u{n}", rng.normal(size=(t, 4)), rng.integers(0, 3, t))
            for n, t in enumerate(lengths)]
    corpus = Corpus(utts, feature_dim=4, num_classes=3)
    for variant in SCORED_VARIANTS:
        model = small_model(**variant)
        ce, fer = evaluate(model, corpus)
        ce_sum = 0.0
        errors = 0
        for u in utts:
            _, logits = forward(model.params, model.config, model_input(model.config, u.features))
            loss, _ = softmax_xent(logits, u.labels)
            ce_sum += loss * u.num_frames
            errors += int((np.argmax(logits, axis=1) != u.labels).sum())
        assert ce == pytest.approx(ce_sum / sum(lengths), rel=1e-12), variant
        assert fer == pytest.approx(errors / sum(lengths), rel=1e-12), variant


@pytest.mark.parametrize("lengths", [[30, 5, 1], [1], [7, 1, 12, 1],
                                     [trainer_mod._GROUP_ROWS - 1, 1, 3]])
@pytest.mark.parametrize("variant", SCORED_VARIANTS, ids=lambda v: "-".join(map(str, v.values())))
def test_evaluate_equals_a_per_utterance_loss_loop_over_the_stacked_logits(variant, lengths):
    # the loss terms and argmax of a group are made once over its stacked
    # logits; the groups here end in a 1-frame utterance
    model = small_model(**variant)
    rng = np.random.default_rng(5)
    utts = [Utterance(f"u{n}", rng.normal(size=(t, 4)), rng.integers(0, 3, t))
            for n, t in enumerate(lengths)]
    ce_sum, errors = 0.0, 0
    for group in trainer_mod._groups(utts, trainer_mod._GROUP_ROWS):
        x = np.concatenate([model_input(model.config, u.features) for u in group])
        logits = forward(model.params, model.config, x, lengths=[u.num_frames for u in group])
        start = 0
        for u in group:
            own = logits[start : start + u.num_frames]
            start += u.num_frames
            ce_sum += xent_loss(own, u.labels) * u.num_frames
            errors += int(np.sum(np.argmax(own, axis=1) != u.labels))
    ce, fer = evaluate(model, Corpus(utts, feature_dim=4, num_classes=3))
    assert ce == ce_sum / sum(lengths)
    assert fer == errors / sum(lengths)


@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("fault, error", [
    ("no frames", model_mod.InputError),
    ("no labels", DimensionError),
    ("label out of range", LabelError),
])
def test_evaluate_rejects_a_bad_utterance_anywhere_in_a_group(position, fault, error):
    # the five utterances form one group; the bad one is first, in the
    # middle or last, and raises what scoring it alone raises
    model = small_model()
    corpus = random_corpus(5, t_frames=6, seed=8)
    bad = corpus.utterances[position]
    if fault == "no frames":
        bad.features, bad.labels = np.zeros((0, 4)), np.zeros(0, dtype=np.int64)
    elif fault == "no labels":
        bad.labels = None
    else:
        bad.labels[3] = 3
    with pytest.raises(error):
        evaluate(model, corpus)


SCORERS = pytest.mark.parametrize(
    "score", [evaluate, lambda m, c: evaluate_streaming(m, c, 4, 1)],
    ids=["evaluate", "evaluate_streaming"])


@SCORERS
def test_scoring_an_empty_corpus_is_a_value_error(score):
    model = small_model()
    with pytest.raises(ValueError, match="corpus is empty"):
        score(model, Corpus([], model.config.input_dim, model.config.num_classes))


@SCORERS
@pytest.mark.parametrize("position", [0, 2, 4])
def test_a_non_finite_loss_is_a_numeric_error_naming_the_utterance(score, position):
    # scoring does not check features, so a NaN reaches its utterance's
    # loss; the five utterances form one group, and no other loss is touched
    model = small_model()
    corpus = random_corpus(5, t_frames=6, seed=8)
    corpus.utterances[position].features[2, 1] = np.nan
    with pytest.raises(NumericError, match=f"^non-finite loss for utterance 'u{position}'$"):
        score(model, corpus)


@SCORERS
def test_huge_weights_are_a_numeric_error_at_the_first_utterance(score):
    model = small_model()
    model.params.input_w.value[...] = 1e300
    model.params.out2_w.value[...] = 1e300
    # the library leaves numpy's float warnings on; the products overflow
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="^non-finite loss for utterance 'u0'$"):
            score(model, random_corpus(3, t_frames=6, seed=8))


def test_evaluate_keeps_no_forward_cache():
    # a deep, narrow model: the cache of one utterance is several times the
    # arrays that scoring it needs at once. Every utterance is a group of its own.
    cfg = RMNConfig(input_dim=8, num_memory_layers=16, num_classes=4, wide_dim=32, memory_dim=32,
                    residual_interval=3)
    model = Model(cfg, init_params(cfg, 0))
    t_frames = 600
    corpus = random_corpus(2, t_frames=t_frames, dim=8, num_classes=4, seed=5)
    rows = cfg.input_dim + 2 * cfg.wide_dim + cfg.memory_dim * (1 + 3 * cfg.num_memory_layers)
    cache_bytes = 8 * t_frames * (rows + cfg.num_classes)
    tracemalloc.start()
    try:
        evaluate(model, corpus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cache_bytes / 3


def test_evaluate_streaming_matches_evaluate_with_enough_lookahead():
    model = small_model(direction="bi")
    corpus = random_corpus(3, t_frames=25, seed=4)
    ce_full, fer_full = evaluate(model, corpus)
    ce_st, fer_st = evaluate_streaming(model, corpus, chunk_size=6, lookahead=3)
    assert ce_st == pytest.approx(ce_full, abs=1e-9)
    assert fer_st == fer_full


# --- fit -------------------------------------------------------------------------


def test_fit_runs_and_reports_monotone_epochs():
    model = small_model()
    train = random_corpus(6, t_frames=15, seed=1)
    valid = random_corpus(2, t_frames=15, seed=2)
    config = TrainConfig(max_epochs=3, base_lr=0.05, peak_lr=0.1, seed=0)
    stats = fit(model, train, valid, config)
    assert [s.epoch for s in stats] == [1, 2, 3]
    assert all(s.wall_seconds >= 0.0 for s in stats)


def test_fit_is_deterministic_for_a_seed():
    train = random_corpus(6, t_frames=15, seed=1)
    valid = random_corpus(2, t_frames=15, seed=2)
    runs = []
    for _ in range(2):
        model = small_model()
        config = TrainConfig(max_epochs=3, base_lr=0.05, peak_lr=0.1, seed=4)
        stats = fit(model, train, valid, config)
        runs.append([(s.train_ce, s.valid_ce, s.train_fer, s.valid_fer) for s in stats])
    assert runs[0] == runs[1]


def test_fit_gives_the_same_values_whether_or_not_buffers_existed_before():
    train = random_corpus(6, t_frames=15, seed=1)
    valid = random_corpus(2, t_frames=15, seed=2)
    config = TrainConfig(max_epochs=1, base_lr=0.05, peak_lr=0.1, seed=3)
    lazy, eager = small_model(), small_model()
    for p in eager.params.parameters():
        p.grad, p.velocity
    assert not any({"grad", "velocity"} & vars(p).keys() for p in lazy.params.parameters())
    assert fit(lazy, train, valid, config)[0].train_ce == fit(eager, train, valid, config)[0].train_ce
    for a, b in zip(lazy.params.parameters(), eager.params.parameters()):
        assert np.array_equal(a.value, b.value)
        assert np.array_equal(a.velocity, b.velocity)


def test_evaluation_holds_only_the_parameter_values(tmp_path):
    # every weight matrix spans several of the reader's row blocks; the
    # bounds leave room for one block of text, not for grad and velocity
    # (twice the values) nor for a whole parameter's text (about three times it)
    block = model_mod._CKPT_BLOCK_ROWS
    cfg = RMNConfig(input_dim=4 * block, num_memory_layers=4, num_classes=64,
                    wide_dim=2 * block, memory_dim=2 * block, direction="bi")
    params = init_params(cfg, 0)
    randomize_params(params, 5)
    save_checkpoint(Model(cfg, params), tmp_path / "model.ckpt")
    value_bytes = sum(p.value.nbytes for p in params.parameters())
    del params
    tracemalloc.start()
    try:
        model = load_checkpoint(tmp_path / "model.ckpt")
        live, peak = tracemalloc.get_traced_memory()
        assert live < 1.1 * value_bytes
        assert peak < 1.5 * value_bytes
        corpus = random_corpus(2, t_frames=12, dim=model.config.input_dim, num_classes=64)
        evaluate(model, corpus)
        evaluate_streaming(model, corpus, chunk_size=4, lookahead=3)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live < 1.1 * value_bytes
    assert not any({"grad", "velocity"} & vars(p).keys() for p in model.params.parameters())


def test_fit_early_stop_callback():
    model = small_model()
    train = random_corpus(6, t_frames=15, seed=1)
    valid = random_corpus(2, t_frames=15, seed=2)
    config = TrainConfig(max_epochs=10, base_lr=0.05, seed=0)
    stats = fit(model, train, valid, config, on_epoch=lambda s, m: s.epoch == 2)
    assert len(stats) == 2


def test_a_non_finite_epoch_loss_names_the_set_and_the_epoch():
    # fit checks the corpora once, before the first epoch; a NaN that
    # appears later reaches the loss of the second epoch's validation scoring
    model = small_model()
    train = random_corpus(4, t_frames=12, seed=1)
    valid = random_corpus(3, t_frames=12, seed=2)
    recorded = []

    def on_epoch(stats, _):
        recorded.append(stats.epoch)
        valid.utterances[1].features[3, 0] = np.nan

    with pytest.raises(NumericError, match=r"^non-finite loss for utterance 'u1' "
                                           r"of the validation set after epoch 2$"):
        fit(model, train, valid, TrainConfig(max_epochs=4, base_lr=0.05, peak_lr=0.1), on_epoch)
    assert recorded == [1]


def test_fit_splices_each_training_utterance_once(monkeypatch):
    # steps and the training set's scoring read the inputs fit spliced
    # before the first epoch; the validation set is spliced group by group
    model = small_model(input_dim=12, splice_left=1, splice_right=1)
    train = random_corpus(5, t_frames=30, seed=1)
    valid = random_corpus(2, t_frames=30, seed=2)
    calls = {"step": 0, "scoring": 0}
    splice = data_mod.splice

    def counting(features, left, right, lengths=None):
        calls["step" if lengths is None else "scoring"] += 1
        return splice(features, left, right, lengths)

    monkeypatch.setattr(data_mod, "splice", counting)
    stats = fit(model, train, valid,
                TrainConfig(max_epochs=3, max_utts_per_batch=2, truncation_chunk=7))
    # one validation group per epoch: 60 frames stay below _GROUP_ROWS
    assert calls == {"step": len(train), "scoring": 3}
    # the training set's scores are those of its raw features, spliced afresh
    assert (stats[-1].train_ce, stats[-1].train_fer) == evaluate(model, train)


@pytest.mark.parametrize("chunk", [None, 17])
@pytest.mark.parametrize("form", ["diagonal", "full"])
@pytest.mark.parametrize("direction", ["uni", "bi"])
def test_fit_through_the_checked_numerics_is_the_same_run(direction, form, chunk, monkeypatch):
    # the passes call the bodies of relu, relu_backward and diag_scale, whose
    # public versions check their operands first; the checked functions
    # must give the same parameters and statistics to the bit
    def run(checked):
        model = small_model(direction=direction, shared_weight_form=form, num_memory_layers=3,
                            input_dim=8, splice_left=1)
        train = random_corpus(5, t_frames=40, seed=1)
        valid = random_corpus(2, t_frames=40, seed=2)
        with monkeypatch.context() as patch:
            for body, public in checked.items():
                patch.setattr(model_mod, body, public)
            stats = fit(model, train, valid, TrainConfig(max_epochs=3, base_lr=0.05, peak_lr=0.1,
                                                         max_utts_per_batch=2, truncation_chunk=chunk))
        return ([(s.epoch, s.lr, s.train_ce, s.valid_ce, s.train_fer, s.valid_fer) for s in stats],
                [p.value for p in model.params.parameters()])

    calls = dict.fromkeys(("relu", "relu_backward", "diag_scale"), 0)

    def counting(name):
        public = getattr(numerics_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return public(*args, **kwargs)
        return wrapper

    fast_stats, fast_values = run({})
    slow_stats, slow_values = run({f"_{name}": counting(name) for name in calls})
    assert calls["relu"] and calls["relu_backward"]
    assert bool(calls["diag_scale"]) == (form == "diagonal")
    assert fast_stats == slow_stats
    assert all(np.array_equal(a, b) for a, b in zip(fast_values, slow_values))


def per_piece_train_step(model, examples, step_pieces, lr, cfg, buffers=None):
    """The training step as one forward and one backward call per piece, in
    piece order, each on its own utterance: the oracle of `_train_step`'s
    groups."""
    from rmnlab.model import backward

    total = sum(p.chunk_end - p.chunk_start for p in step_pieces)
    for piece in step_pieces:
        x, labels = examples[piece.utt_index]
        rows = (piece.chunk_start, piece.chunk_end)
        cache, _ = forward(model.params, model.config, x, rows=rows)
        backward(model.params, model.config, cache, labels, loss_scale=(rows[1] - rows[0]) / total,
                 grad_window=rows)
    trainer_mod.sgd_step(model.params, lr, cfg.momentum, cfg.l2)


@pytest.mark.parametrize("chunk", [None, 17, 5])
@pytest.mark.parametrize("form", ["diagonal", "full"])
@pytest.mark.parametrize("direction", ["uni", "bi"])
@pytest.mark.parametrize("residual, splice", [(2, 1), (None, 0)])
def test_fit_in_groups_is_the_per_piece_run_bit_for_bit(direction, form, chunk, residual, splice,
                                                        monkeypatch):
    # utterances of uneven lengths, so that steps mix groups of several
    # pieces with lone ones
    rng = np.random.default_rng(8)
    lengths = [30, 30, 30, 30, 23, 30, 41, 41, 9, 30, 30, 1]
    train = Corpus([Utterance(f"u{i}", rng.normal(size=(n, 4)), rng.integers(0, 3, n))
                    for i, n in enumerate(lengths)], 4, 3)
    valid = random_corpus(3, t_frames=20, seed=2)
    config = TrainConfig(max_epochs=3, base_lr=0.05, peak_lr=0.1, max_utts_per_batch=5,
                         truncation_chunk=chunk)
    groups = []
    forward_ = trainer_mod.forward

    def counting(*args, pieces=1, **kwargs):
        if "lengths" not in kwargs:  # a step's group, not a scoring call
            groups.append(pieces)
        return forward_(*args, pieces=pieces, **kwargs)

    def run(step):
        model = small_model(direction=direction, shared_weight_form=form, residual_interval=residual,
                            num_memory_layers=3, input_dim=4 * (1 + 2 * splice),
                            splice_left=splice, splice_right=splice)
        with monkeypatch.context() as patch:
            patch.setattr(trainer_mod, "_train_step", step)
            patch.setattr(trainer_mod, "forward", counting)
            stats = fit(model, train, valid, config)
        return ([(s.epoch, s.lr, s.train_ce, s.valid_ce, s.train_fer, s.valid_fer) for s in stats],
                [a.tobytes() for p in model.params.parameters() for a in (p.value, p.velocity)])

    grouped = run(trainer_mod._train_step)
    assert max(groups) > 1 and min(groups) == 1
    assert run(per_piece_train_step) == grouped


def test_a_training_group_holds_at_most_group_rows_of_input(monkeypatch):
    # pieces of one shape in a row form groups of up to _GROUP_ROWS input
    # rows; a shape change starts a new group
    model = small_model()
    seen = []
    forward_ = trainer_mod.forward

    def recording(params, config, x, *args, pieces=1, **kwargs):
        seen.append((len(x) // pieces, pieces))
        return forward_(params, config, x, *args, pieces=pieces, **kwargs)

    monkeypatch.setattr(trainer_mod, "forward", recording)
    monkeypatch.setattr(trainer_mod, "_GROUP_ROWS", 100)
    lengths = [30, 30, 30, 30, 20, 20, 30]
    examples = [(RNG.normal(size=(n, 4)), RNG.integers(0, 3, n)) for n in lengths]
    step = [BatchPiece(i, 0, n) for i, n in enumerate(lengths)]
    trainer_mod._train_step(model, examples, step, 0.0, TrainConfig())
    assert seen == [(30, 3), (30, 1), (20, 2), (30, 1)]


def test_fit_stops_when_rate_collapses():
    model = small_model()
    train = random_corpus(6, t_frames=15, seed=1)
    valid = random_corpus(2, t_frames=15, seed=2)
    # force constant degradation so halving fires every epoch: rate falls
    # below base/64 after 7 halvings
    config = TrainConfig(
        schedule="constant_then_halve", base_lr=0.4, max_epochs=50, seed=0,
        momentum=0.0,
    )

    ce_values = iter([1.0 + 0.1 * k for k in range(60)])

    import rmnlab.trainer as trainer_mod

    real_evaluate = trainer_mod.evaluate

    def fake_evaluate(model_, corpus_):
        return next(ce_values), 0.5

    trainer_mod.evaluate = fake_evaluate
    try:
        stats = fit(model, train, valid, config)
    finally:
        trainer_mod.evaluate = real_evaluate
    # degradation every epoch from epoch 3 on: lr(e) = 0.4 * 0.5^(e-2), so
    # epoch 8 still runs at exactly base/64 and epoch 9 is cut
    assert len(stats) == 8


def test_loop_calls_go_through_trainer_module_globals(monkeypatch):
    # the benchmark's probes replace these names in rmnlab.trainer and time
    # whatever runs through them; a call that bypasses the module global
    # leaves them without a sample
    import rmnlab.trainer as trainer_mod

    calls = {"streaming_forward": 0, "sgd_step": 0, "evaluate": 0}

    def counting(name):
        real = getattr(trainer_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(trainer_mod, name, counting(name))
    model = small_model(direction="bi")
    train = random_corpus(3, t_frames=10, seed=1)
    valid = random_corpus(2, t_frames=10, seed=2)
    evaluate_streaming(model, valid, chunk_size=4, lookahead=2)
    assert calls == {"streaming_forward": 2, "sgd_step": 0, "evaluate": 0}
    fit(model, train, valid, TrainConfig(max_epochs=2, max_utts_per_batch=2, truncation_chunk=None))
    # two epochs of two steps, each scoring the training and validation sets
    assert calls == {"streaming_forward": 2, "sgd_step": 4, "evaluate": 4}


def test_check_corpus_rejects_a_zero_frame_utterance():
    model = small_model()
    corpus = random_corpus(3, t_frames=10, seed=1)
    corpus.utterances[1] = Utterance("silent", np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="'silent' has no frames"):
        check_corpus(model.config, corpus, "eval")
    with pytest.raises(ValueError, match="'silent' has no frames"):
        fit(model, corpus, random_corpus(2, t_frames=10, seed=2), TrainConfig(max_epochs=1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_corpus_rejects_non_finite_features_held_in_memory(bad):
    model = small_model()
    corpus = random_corpus(3, t_frames=10, seed=1)
    corpus.utterances[2].features[4, 0] = bad
    with pytest.raises(ValueError, match="utterance 'u2' has non-finite features"):
        check_corpus(model.config, corpus, "eval")


def test_fit_rejects_mismatched_corpus():
    model = small_model()
    train = random_corpus(3, t_frames=10, dim=5, seed=1)
    valid = random_corpus(2, t_frames=10, dim=5, seed=2)
    with pytest.raises(ValueError):
        fit(model, train, valid, TrainConfig(max_epochs=1))


def test_fit_rejects_class_overflow():
    model = small_model()  # 3 classes
    train = random_corpus(3, t_frames=10, num_classes=9, seed=1)
    valid = random_corpus(2, t_frames=10, num_classes=9, seed=2)
    with pytest.raises(ValueError):
        fit(model, train, valid, TrainConfig(max_epochs=1))


@pytest.mark.parametrize("which", ["train", "valid"])
@pytest.mark.parametrize("label", [7, -1])
def test_fit_rejects_a_label_out_of_range_before_the_first_step(which, label, monkeypatch):
    model = small_model()  # 3 classes
    corpora = {"train": random_corpus(4, t_frames=10, seed=1),
               "valid": random_corpus(2, t_frames=10, seed=2)}
    corpora[which].utterances[1].labels[5] = label
    steps = []
    monkeypatch.setattr(trainer_mod, "sgd_step", lambda *args: steps.append(args))
    with pytest.raises(LabelError, match=rf"^{which} corpus: utterance 'u1' has label {label} "
                                         r"out of range \[0, 3\) at frame 5$"):
        fit(model, corpora["train"], corpora["valid"], TrainConfig(max_epochs=1))
    assert steps == []


@pytest.mark.parametrize("labels", [np.zeros(9, dtype=np.int64), np.zeros(10)],
                         ids=["one short", "floats"])
def test_check_corpus_rejects_labels_that_are_not_one_integer_per_frame(labels):
    model = small_model()
    corpus = random_corpus(3, t_frames=10, seed=1)
    corpus.utterances[2].labels = labels
    with pytest.raises(ValueError, match="utterance 'u2' needs one integer label per frame"):
        check_corpus(model.config, corpus, "train")


def test_fit_rejects_empty_corpus():
    model = small_model()
    empty = Corpus([], feature_dim=4, num_classes=3)
    valid = random_corpus(2, t_frames=10, seed=2)
    with pytest.raises(ValueError):
        fit(model, empty, valid, TrainConfig(max_epochs=1))


# --- stats row formatting ---------------------------------------------------------


def test_metrics_header_and_row_shape():
    stats = EpochStats(
        epoch=3, lr=0.25, train_ce=1.5, valid_ce=1.25,
        train_fer=0.5, valid_fer=0.4375, wall_seconds=2.5,
    )
    row = format_stats_row(stats)
    fields = row.split(",")
    assert len(fields) == len(METRICS_HEADER.split(","))
    assert fields[0] == "3"
    assert float(fields[1]) == 0.25
    assert float(fields[3]) == 1.25


def test_stats_row_is_byte_stable():
    stats = EpochStats(
        epoch=1, lr=0.1, train_ce=2.302585092994046, valid_ce=2.302585092994046,
        train_fer=0.8999999999999999, valid_fer=0.9, wall_seconds=0.0,
    )
    assert format_stats_row(stats) == format_stats_row(stats)
    # repr round-trip keeps every bit of the float
    assert float(format_stats_row(stats).split(",")[2]) == 2.302585092994046
