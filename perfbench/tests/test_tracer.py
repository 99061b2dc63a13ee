import numpy as np

import rmnlab
import rmnlab.cli  # binds evaluate, load_checkpoint, ... at import time
from rmnlab import data, model, numerics, trainer

from perfbench.tracer import TRACED, Patcher, Tracer, rmnlab_modules, self_times

HOMES = {"data": data, "numerics": numerics, "model": model, "trainer": trainer}


def bindings():
    """Every (module, name) -> object binding of a traced function."""
    out = {}
    for home_name, names in TRACED.items():
        for name in names:
            original = getattr(HOMES[home_name], name)
            for mod in rmnlab_modules():
                if mod.__dict__.get(name) is original:
                    out[(mod.__name__, name)] = original
    return out


def test_wrappers_installed_at_every_importing_module_and_restored():
    before = bindings()
    # the bindings made by `from ... import` that a home-module patch would miss
    for key in (("rmnlab.trainer", "forward"), ("rmnlab.model", "affine"), ("rmnlab.cli", "evaluate"),
                ("rmnlab", "fit"), ("rmnlab.trainer", "sgd_step")):
        assert key in before
    with Patcher() as patcher:
        Tracer("t").install(patcher)
        for (mod_name, name), original in before.items():
            current = getattr(__import__(mod_name, fromlist=["_"]), name)
            assert current is not original, f"{mod_name}.{name} left unwrapped"
            assert current.__wrapped__ is original
    after = {(m, n): getattr(__import__(m, fromlist=["_"]), n) for (m, n) in before}
    assert all(after[k] is before[k] for k in before)


def test_stacked_patches_restore_in_reverse_order():
    original = trainer.sgd_step
    with Patcher() as patcher:
        Tracer("t").install(patcher)
        traced = trainer.sgd_step
        patcher.install(trainer, "sgd_step", lambda fn: (lambda *a, **k: fn(*a, **k)))
        assert trainer.sgd_step is not traced and rmnlab.sgd_step is trainer.sgd_step
    assert trainer.sgd_step is original and rmnlab.sgd_step is original


def test_self_time_subtracts_direct_children_only():
    #        0 (10)
    #      /        \
    #   1 (3)      2 (4)        4 (2)
    #     |
    #   3 (1)
    parent = np.array([-1, 0, 0, 1, -1])
    dur = np.array([10.0, 3.0, 4.0, 1.0, 2.0])
    assert self_times(parent, dur).tolist() == [3.0, 2.0, 4.0, 1.0, 2.0]


def _tiny_model():
    config = rmnlab.RMNConfig(input_dim=3, num_memory_layers=2, num_classes=4, wide_dim=5, memory_dim=4,
                              direction="uni", residual_interval=1)
    return config


def test_spans_nest_and_affine_calls_name_their_stage():
    config = _tiny_model()
    tracer = Tracer("t")
    with Patcher() as patcher:
        tracer.install(patcher)
        params = rmnlab.init_params(config, 0)
        x = np.random.default_rng(0).normal(size=(7, 3))
        cache, _ = rmnlab.forward(params, config, x)
        rmnlab.backward(params, config, cache, np.zeros(7, dtype=np.int64), grad_window=(2, 7))
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    fwd = names.index("model.forward")
    affines = [i for i, n in enumerate(names) if n == "numerics.affine"]
    assert all(a["parent"][i] == fwd for i in affines)
    stages = [tracer.stage_names[a["stage"][i]] for i in affines]
    assert stages == ["input_w", "proj_w", "layer_w[0]", "layer_w[1]", "out1_w", "out2_w"]
    assert a["work"][affines[0]] == 2 * 7 * 3 * 5  # computed flops of the input GEMM
    bwd = names.index("model.backward")
    assert (a["work"][bwd], a["useful"][bwd]) == (7, 5)
    assert a["useful"][fwd] == 5  # the forward only served the gradient window
    assert np.all(a["self"] >= 0) and np.all(a["self"] <= a["dur"])


def test_trace_file_round_trips(tmp_path):
    tracer = Tracer("run-1")
    with Patcher() as patcher:
        tracer.install(patcher)
        rmnlab.init_params(_tiny_model(), 0)
    path = tmp_path / "t.npz"
    tracer.write(path)
    with np.load(path) as f:
        assert str(f["run_id"]) == "run-1"
        assert list(f["names"][f["name"]]) == ["model.init_params"]
        assert f["root"].tolist() == [0]
