import dataclasses

import pytest

from refalign.config import (VARIANT_ORDER, W_SWEEP_GRID, RunConfig,
                             config_as_dict, config_from_dict,
                             full_scale_config, read_config,
                             trend_protocol_config, write_config)
from refalign.data import CorpusConfig
from refalign.encoders import EncoderConfig
from refalign.losses import LossConfig


def test_defaults_and_derived():
    cfg = RunConfig()
    assert (cfg.epochs, cfg.warmup_epochs, cfg.peak_lr) == (30, 2, 1e-3)
    assert (cfg.batch_identities, cfg.batch_pairs) == (8, 2)
    assert cfg.mask_ratio == 0.15
    assert cfg.steps_per_epoch == 200 // 8
    assert cfg.variant == "Baseline"
    assert not any((cfg.guided, cfg.reconstructs, cfg.reranks))


def test_validation():
    with pytest.raises(ValueError):
        RunConfig(warmup_epochs=0)
    with pytest.raises(ValueError):
        RunConfig(warmup_epochs=30, epochs=30)
    with pytest.raises(ValueError):
        RunConfig(peak_lr=0.0)
    with pytest.raises(ValueError):
        RunConfig(batch_identities=0)
    with pytest.raises(ValueError):
        RunConfig(batch_identities=201)
    with pytest.raises(ValueError):
        RunConfig(batch_pairs=5)
    with pytest.raises(ValueError):
        RunConfig(mask_ratio=0.0)
    with pytest.raises(ValueError):
        RunConfig(eval_every=-1)
    with pytest.raises(KeyError):
        RunConfig(variant="D")


def test_variant_flags():
    base = RunConfig(run_id="abl")
    flags = {}
    for name in VARIANT_ORDER:
        cfg = base.with_variant(name)
        assert cfg.run_id == f"abl-{name}"
        assert cfg.variant == name
        flags[name] = (cfg.guided, cfg.reconstructs, cfg.reranks)
    assert flags["Baseline"] == (False, False, False)
    assert flags["A"] == (True, False, False)
    assert flags["B"] == (True, False, True)
    assert flags["C"] == (True, True, False)
    assert flags["Full"] == (True, True, True)
    with pytest.raises(KeyError):
        base.with_variant("D")


def test_with_seed():
    cfg = RunConfig(run_id="abl").with_seed(2)
    assert cfg.seed == 2 and cfg.run_id == "abl-s2"


def test_full_scale_protocol():
    cfg = full_scale_config()
    assert (cfg.epochs, cfg.warmup_epochs) == (20, 2)
    assert cfg.peak_lr == 4e-5
    assert (cfg.batch_identities, cfg.batch_pairs) == (45, 2)
    assert cfg.variant == "Full"


def test_trend_protocol_is_buildable():
    cfg = trend_protocol_config()
    assert cfg.epochs > cfg.warmup_epochs
    assert cfg.loss.bank_wide_negatives
    assert cfg.eval_every == 0


def test_sweep_grid_and_variants_exported():
    assert W_SWEEP_GRID == (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)
    assert VARIANT_ORDER == ("Baseline", "A", "B", "C", "Full")


# ----------------------------------------------------------------- INI files

def test_write_read_round_trip(tmp_path):
    cfg = RunConfig(
        corpus=CorpusConfig(n_train_identities=24, n_test_identities=6,
                            pairs_per_identity=3, p_drop=0.45, seed=5),
        encoder=EncoderConfig(d=32, n_heads=8),
        loss=LossConfig(guidance_weight=2.0, bank_wide_negatives=True),
        epochs=7, warmup_epochs=3, peak_lr=5e-4, batch_identities=6,
        batch_pairs=3, eval_every=2, seed=11, run_id="trip", variant="B")
    path = str(tmp_path / "run.ini")
    write_config(cfg, path)
    assert read_config(path) == cfg


def test_round_trip_of_shipped_protocols(tmp_path):
    for i, cfg in enumerate((RunConfig(), full_scale_config(),
                             trend_protocol_config())):
        path = str(tmp_path / f"p{i}.ini")
        write_config(cfg, path)
        assert read_config(path) == cfg


def test_read_config_rejects_unknown_names(tmp_path):
    good = tmp_path / "good.ini"
    write_config(RunConfig(), str(good))
    text = good.read_text()

    bad_key = tmp_path / "key.ini"
    bad_key.write_text(text.replace("epochs =", "epocs ="))
    with pytest.raises(KeyError):
        read_config(str(bad_key))

    bad_section = tmp_path / "section.ini"
    bad_section.write_text(text.replace("[loss]", "[losses]"))
    with pytest.raises(KeyError):
        read_config(str(bad_section))

    # the image encoder's input width comes from the corpus; the field
    # that once restated it is refused by name
    stale = tmp_path / "stale.ini"
    stale.write_text(text.replace("[encoder]\n", "[encoder]\nimage_input_dim = 64\n"))
    with pytest.raises(KeyError, match=r"unknown key 'image_input_dim' in \[encoder\]"):
        read_config(str(stale))


def test_bool_coercion(tmp_path):
    path = tmp_path / "bools.ini"
    write_config(RunConfig(), str(path))
    text = path.read_text()
    for raw, want in (("yes", True), ("off", False), ("1", True), ("False", False)):
        path.write_text(text.replace("bank_wide_negatives = False",
                                     f"bank_wide_negatives = {raw}"))
        assert read_config(str(path)).loss.bank_wide_negatives is want
    path.write_text(text.replace("bank_wide_negatives = False",
                                 "bank_wide_negatives = maybe"))
    with pytest.raises(ValueError):
        read_config(str(path))


def test_dict_round_trip():
    cfg = trend_protocol_config().with_variant("Full").with_seed(1)
    payload = config_as_dict(cfg)
    assert payload["corpus"]["p_drop"] == cfg.corpus.p_drop
    assert config_from_dict(payload) == cfg
    # independent copies, not views
    assert config_from_dict(dict(payload)) is not cfg
    assert dataclasses.asdict(cfg) == payload
    # only the exact field set of each section loads back
    del payload["epochs"]
    with pytest.raises(ValueError, match=r"\[run\]: missing fields \['epochs'\]"):
        config_from_dict(payload)
    payload = config_as_dict(cfg)
    payload["corpus"]["colour"] = 1
    with pytest.raises(ValueError, match=r"\[corpus\]: unknown fields \['colour'\]"):
        config_from_dict(payload)
    payload = config_as_dict(cfg)
    payload["encoder"]["image_input_dim"] = cfg.corpus.image_dim
    with pytest.raises(ValueError, match=r"\[encoder\]: unknown fields \['image_input_dim'\]"):
        config_from_dict(payload)
    # and a section must be an object at all
    payload = config_as_dict(cfg)
    payload["loss"] = [payload["loss"]]
    with pytest.raises(ValueError, match=r"\[loss\]: expected an object, got list$"):
        config_from_dict(payload)
