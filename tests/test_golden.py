"""Byte-level stability across builds: checkpoints and archives committed
under tests/data were written by an earlier build, and this build must
still read them and write the same bytes."""

from pathlib import Path

import numpy as np
import pytest

from rmnlab.data import gen_delayed_recall, gen_future_recall, gen_parity, write_archive
from rmnlab.model import Model, RMNConfig, init_params, load_checkpoint, randomize_params, save_checkpoint

DATA = Path(__file__).parent / "data"

# file -> (config, seed); parameters are init_params(config, seed) then
# randomize_params(params, seed + 100)
CHECKPOINTS = {
    "uni_diagonal_res3_splice.ckpt": (
        dict(input_dim=9, num_memory_layers=4, num_classes=4, wide_dim=7, memory_dim=5,
             residual_interval=3, splice_left=1, splice_right=1),
        1,
    ),
    "bi_full_nores.ckpt": (
        dict(input_dim=4, num_memory_layers=3, num_classes=3, wide_dim=6, memory_dim=4,
             direction="bi", shared_weight_form="full", residual_interval=None),
        2,
    ),
}

ARCHIVES = {
    "delayed_recall.arc": lambda: gen_delayed_recall(3, 2, 8, 3, seed=5),
    "future_recall.arc": lambda: gen_future_recall(3, 2, 8, 3, seed=6),
    "parity.arc": lambda: gen_parity(3, 10, 3, seed=7),
}


@pytest.mark.parametrize("name", sorted(CHECKPOINTS))
def test_golden_checkpoint_loads_and_saves_same_bytes(name, tmp_path):
    kw, seed = CHECKPOINTS[name]
    config = RMNConfig(**kw)
    params = init_params(config, seed)
    randomize_params(params, seed + 100)

    golden = load_checkpoint(DATA / name)
    assert golden.config == config
    for want, got in zip(params.parameters(), golden.params.parameters()):
        assert np.array_equal(want.value, got.value), want.name

    save_checkpoint(Model(config, params), tmp_path / "fresh.ckpt")
    save_checkpoint(golden, tmp_path / "reloaded.ckpt")
    expected = (DATA / name).read_bytes()
    assert (tmp_path / "fresh.ckpt").read_bytes() == expected
    assert (tmp_path / "reloaded.ckpt").read_bytes() == expected


@pytest.mark.parametrize("name", sorted(ARCHIVES))
def test_golden_archive_regenerates_same_bytes(name, tmp_path):
    write_archive(ARCHIVES[name](), tmp_path / name)
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()
