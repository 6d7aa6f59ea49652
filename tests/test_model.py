import re
from types import SimpleNamespace

import numpy as np
import pytest

from refalign import tensor as T
from refalign.config import trend_protocol_config
from refalign.data import CorpusConfig, generate_corpus, sample_batch
from refalign.encoders import EncoderConfig
from refalign.model import (RetrievalModel, load_checkpoint, model_for_corpus,
                            read_checkpoint, save_checkpoint)


def _corpus(**kw):
    base = dict(n_train_identities=6, n_test_identities=3,
                pairs_per_identity=2, n_slots=3, values_per_slot=5,
                background_dims=4, seed=1)
    base.update(kw)
    return generate_corpus(CorpusConfig(**base))


def _enc(corpus, **kw):
    base = dict(d=16, n_heads=4, vocab_size=corpus.config.vocab_size,
                max_seq_len=corpus.config.max_tokens)
    base.update(kw)
    return EncoderConfig(**base)


def test_model_for_corpus_validation():
    corpus = _corpus()
    with pytest.raises(ValueError, match="vocab"):
        model_for_corpus(_enc(corpus, vocab_size=corpus.config.vocab_size - 1),
                         corpus, seed=0)
    with pytest.raises(ValueError, match="caps"):
        model_for_corpus(_enc(corpus, max_seq_len=corpus.config.max_tokens - 1),
                         corpus, seed=0)


def test_named_parameters_unique_and_complete():
    corpus = _corpus()
    model = model_for_corpus(_enc(corpus), corpus, seed=0)
    names = model.named_parameters()
    assert len(names) == len(model.parameters())
    assert "reference.bank" in names
    assert "text.tok_emb" in names and "image.w1" in names
    assert any(n.startswith("recon.") for n in names)
    assert model.bank.m == 6


def test_trend_model_size():
    cfg = trend_protocol_config()
    model = RetrievalModel(cfg.encoder, cfg.corpus.image_dim, cfg.corpus.n_train_identities,
                           seed=0)
    params = model.parameters()
    assert len(params) == 112
    assert sum(p.size for p in params) == 108_352


def test_model_seed_determinism():
    corpus = _corpus()
    a = model_for_corpus(_enc(corpus), corpus, seed=5)
    b = model_for_corpus(_enc(corpus), corpus, seed=5)
    c = model_for_corpus(_enc(corpus), corpus, seed=6)
    for name, p in a.named_parameters().items():
        np.testing.assert_array_equal(p.data, b.named_parameters()[name].data)
    assert any(p.data.tobytes() != c.named_parameters()[n].data.tobytes()
               for n, p in a.named_parameters().items())


def test_encode_pairs_contract():
    corpus = _corpus()
    model = model_for_corpus(_enc(corpus), corpus, seed=0)
    batch = sample_batch(corpus, 3, 2, seed=0)
    text, image = model.encode_pairs(batch)
    for feats in (text, image):
        assert feats.shape == (6, 16)
        np.testing.assert_allclose(np.linalg.norm(feats.data, axis=1), 1.0)


def _trained_state(corpus, seed=0):
    model = model_for_corpus(_enc(corpus), corpus, seed=seed)
    opt = T.Adam(model.parameters())
    rng = np.random.default_rng(7)
    for _ in range(2):
        grads = {p: rng.normal(size=p.shape) * 0.01 for p in opt.params}
        opt.step(grads, lr=1e-3)
    return model, opt


def test_checkpoint_round_trip_bitwise(tmp_path):
    corpus = _corpus()
    model, opt = _trained_state(corpus)
    path = str(tmp_path / "state.ckpt")
    meta = {"run_id": "round-trip", "note": 3}
    save_checkpoint(path, model.named_parameters(), step=17, meta=meta,
                    optimizer=opt)

    other = model_for_corpus(_enc(corpus), corpus, seed=99)
    other_opt = T.Adam(other.parameters())
    step, got_meta = load_checkpoint(path, other.named_parameters(), other_opt)
    assert (step, got_meta) == (17, meta)
    for name, p in model.named_parameters().items():
        np.testing.assert_array_equal(p.data, other.named_parameters()[name].data)
    for key, arr in opt.state_arrays().items():
        np.testing.assert_array_equal(arr, other_opt.state_arrays()[key])

    again = str(tmp_path / "again.ckpt")
    save_checkpoint(again, other.named_parameters(), step=17, meta=meta,
                    optimizer=other_opt)
    assert open(path, "rb").read() == open(again, "rb").read()


def test_save_checkpoint_replaces_the_file_atomically(tmp_path):
    corpus = _corpus()
    model, opt = _trained_state(corpus)
    path = tmp_path / "state.ckpt"
    save_checkpoint(str(path), model.named_parameters(), step=3, meta={}, optimizer=opt)
    before = path.read_bytes()
    # the second array cannot become float64, so the write stops after the first
    params = {"a": SimpleNamespace(data=np.ones(4)),
              "b": SimpleNamespace(data=np.array(["x"], dtype=object))}
    with pytest.raises(ValueError):
        save_checkpoint(str(path), params, step=4, meta={})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ckpt"]


def test_read_checkpoint_validation(tmp_path):
    corpus = _corpus()
    model, _ = _trained_state(corpus)
    path = str(tmp_path / "state.ckpt")
    save_checkpoint(path, model.named_parameters(), step=1, meta={})

    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        read_checkpoint(str(junk))

    blob = bytearray(open(path, "rb").read())
    blob[8] = 99                      # version field
    bad_version = tmp_path / "version.ckpt"
    bad_version.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        read_checkpoint(str(bad_version))

    # v1 files hold tensors v2 dropped and Adam moments keyed by the old
    # parameter positions; they must be refused, never half-loaded
    blob[8:12] = (1).to_bytes(4, "little")
    v1 = tmp_path / "v1.ckpt"
    v1.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="unsupported version 1"):
        read_checkpoint(str(v1))
    with pytest.raises(ValueError, match="unsupported version 1"):
        load_checkpoint(str(v1), model.named_parameters())

    whole = open(path, "rb").read()
    truncated = tmp_path / "short.ckpt"
    for cut, record in ((0, "header"), (7, "header"), (15, "header"),
                        (20, "manifest"), (len(whole) - 16, "array 'reference.bank'")):
        truncated.write_bytes(whole[:cut])
        with pytest.raises(ValueError, match=f"checkpoint: truncated in {record}"):
            read_checkpoint(str(truncated))


def test_read_checkpoint_names_a_bad_manifest(tmp_path):
    corpus = _corpus()
    model, _ = _trained_state(corpus)
    path = tmp_path / "state.ckpt"
    save_checkpoint(str(path), model.named_parameters(), step=10, meta={})
    blob = path.read_bytes()
    # a manifest that is not JSON, one with no arrays entry, arrays
    # entries with no shape, offset or name, no step, a step that is not
    # an integer, and a meta that is not an object
    for bad in (blob[:16] + b"x" + blob[17:], blob.replace(b'"arrays"', b'"arrayz"', 1),
                blob.replace(b'"shape"', b'"shapx"', 1),
                blob.replace(b'"offset"', b'"offsex"', 1),
                blob.replace(b'"name"', b'"namx"', 1),
                blob.replace(b'"step":10', b'"stex":10'),
                blob.replace(b'"step":10', b'"step":""'),
                blob.replace(b'"meta":{}', b'"meta":[]')):
        assert len(bad) == len(blob) and bad != blob
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="^checkpoint: bad manifest$"):
            read_checkpoint(str(path))


def test_load_checkpoint_validation(tmp_path):
    corpus = _corpus()
    model, _ = _trained_state(corpus)
    path = str(tmp_path / "state.ckpt")
    save_checkpoint(path, model.named_parameters(), step=1, meta={})

    wider = model_for_corpus(_enc(corpus, d=32, n_heads=4), corpus, seed=0)
    with pytest.raises(T.ShapeError):
        load_checkpoint(path, wider.named_parameters())

    renamed = dict(model.named_parameters())
    renamed["missing.extra"] = T.parameter(np.zeros(2), "missing.extra")
    with pytest.raises(KeyError):
        load_checkpoint(path, renamed)


def test_load_checkpoint_refuses_a_foreign_array_before_writing(tmp_path):
    corpus = _corpus()
    deeper = model_for_corpus(_enc(corpus, n_blocks=2), corpus, seed=0)
    path = str(tmp_path / "deeper.ckpt")
    save_checkpoint(path, deeper.named_parameters(), step=1, meta={},
                    optimizer=T.Adam(deeper.parameters()))
    model = model_for_corpus(_enc(corpus, n_blocks=1), corpus, seed=3)
    opt = T.Adam(model.parameters())
    before = {name: p.data.tobytes() for name, p in model.named_parameters().items()}
    for optimizer in (None, opt):
        with pytest.raises(KeyError, match=r"'text\.block1\.ln1\.g' is not a model parameter"):
            load_checkpoint(path, model.named_parameters(), optimizer)
        assert {name: p.data.tobytes()
                for name, p in model.named_parameters().items()} == before
    assert opt.t == 0 and all(not a.any() for a in opt.state_arrays().values())


def test_load_checkpoint_refuses_a_non_finite_array_before_writing(tmp_path):
    # a NaN in the bank once loaded, and eval printed plain metrics from it
    corpus = _corpus()
    model, opt = _trained_state(corpus)
    path = str(tmp_path / "state.ckpt")
    save_checkpoint(path, model.named_parameters(), step=1, meta={}, optimizer=opt)
    _, _, arrays = read_checkpoint(path)
    fresh = model_for_corpus(_enc(corpus), corpus, seed=3)
    fresh_opt = T.Adam(fresh.parameters())
    before = {key: p.data.tobytes() for key, p in fresh.named_parameters().items()}
    for name, value in (("reference.bank", np.nan), ("image.w1", np.inf),
                        ("adam.v.0", -np.inf)):
        bad = {key: arr.copy() for key, arr in arrays.items()}
        bad[name].flat[-1] = value
        save_checkpoint(path, {key: SimpleNamespace(data=arr) for key, arr in bad.items()},
                        step=1, meta={})
        with pytest.raises(ValueError, match=rf"^checkpoint: array '{re.escape(name)}' "
                                             rf"has a non-finite value$"):
            load_checkpoint(path, fresh.named_parameters(), fresh_opt)
        assert {key: p.data.tobytes()
                for key, p in fresh.named_parameters().items()} == before
        assert fresh_opt.t == 0


def test_duplicate_parameter_name_rejected():
    corpus = _corpus()
    model = model_for_corpus(_enc(corpus), corpus, seed=0)
    model.image_encoder.w1 = model.text_encoder.tok_emb
    with pytest.raises(ValueError, match="unnamed or duplicated"):
        model.named_parameters()


def test_model_requires_identities():
    with pytest.raises(ValueError):
        RetrievalModel(EncoderConfig(), 64, 0, seed=0)
