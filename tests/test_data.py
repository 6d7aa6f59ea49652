"""Synthetic corpus: generation, ambiguity injection, batching, storage."""
import json
import math
import re
import struct
from dataclasses import asdict

import numpy as np
import pytest

from refalign import data
from refalign.data import (BOS_ID, EOS_ID, MASK_ID, N_SPECIAL, PAD_ID,
                           CorpusConfig, Tokenizer, derive_rng,
                           generate_corpus, load_corpus, sample_batch,
                           save_corpus)


def _cfg(**kw):
    base = dict(n_train_identities=12, n_test_identities=5,
                pairs_per_identity=3, n_slots=4, values_per_slot=6,
                p_drop=0.3, p_swap=0.1, image_noise_sigma=0.1,
                background_dims=8, seed=0)
    base.update(kw)
    return CorpusConfig(**base)


def test_special_token_ids_are_stable():
    assert (PAD_ID, MASK_ID, BOS_ID, EOS_ID, N_SPECIAL) == (0, 1, 2, 3, 4)


def test_derive_rng_streams_are_independent():
    a = derive_rng(0, 11).integers(0, 1 << 30, size=4)
    b = derive_rng(0, 11).integers(0, 1 << 30, size=4)
    c = derive_rng(0, 23).integers(0, 1 << 30, size=4)
    d = derive_rng(0, 11, 1).integers(0, 1 << 30, size=4)
    np.testing.assert_array_equal(a, b)
    assert a.tobytes() != c.tobytes()
    assert a.tobytes() != d.tobytes()


# -------------------------------------------------------------------- config

def test_config_derived_dimensions():
    cfg = _cfg()
    assert cfg.image_dim == 4 * 6 + 8
    assert cfg.vocab_size == 4 + 4 + 6
    assert cfg.max_tokens == 2 + 2 * 4


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(n_train_identities=0)
    with pytest.raises(ValueError):
        _cfg(pairs_per_identity=0)
    with pytest.raises(ValueError):
        _cfg(values_per_slot=1)
    with pytest.raises(ValueError):
        _cfg(p_drop=-0.1)
    with pytest.raises(ValueError):
        _cfg(p_swap=1.2)
    with pytest.raises(ValueError):
        _cfg(image_noise_sigma=-1.0)
    with pytest.raises(ValueError):
        # more identities than distinct attribute tuples
        _cfg(n_train_identities=3, n_test_identities=0, n_slots=1,
             values_per_slot=2)


# ----------------------------------------------------------------- tokenizer

def test_tokenizer_round_trip():
    tok = Tokenizer(n_slots=4, values_per_slot=6)
    mentions = [(0, 5), (2, 5), (3, 0)]       # values shared across slots
    ids = tok.encode(mentions)
    assert ids.dtype == np.int64
    assert ids[0] == BOS_ID and ids[-1] == EOS_ID
    assert ids.size == 2 + 2 * len(mentions)
    assert tok.decode(ids) == mentions


def test_tokenizer_empty_mentions():
    tok = Tokenizer(4, 6)
    ids = tok.encode([])
    np.testing.assert_array_equal(ids, [BOS_ID, EOS_ID])
    assert tok.decode(ids) == []


def test_tokenizer_value_without_marker_rejected():
    tok = Tokenizer(4, 6)
    bare_value = np.array([BOS_ID, tok.value_token(0, 0), EOS_ID], dtype=np.int64)
    with pytest.raises(ValueError, match="without a marker"):
        tok.decode(bare_value)


def test_tokenizer_range_validation():
    tok = Tokenizer(4, 6)
    with pytest.raises(ValueError):
        tok.marker(4)
    with pytest.raises(ValueError):
        tok.encode([(0, 6)])
    with pytest.raises(ValueError):
        tok.encode([(-1, 0)])


# ---------------------------------------------------------------- generation

def test_generation_deterministic():
    a, b = generate_corpus(_cfg()), generate_corpus(_cfg())
    for pa, pb in zip(a.train_pairs + a.test_pairs, b.train_pairs + b.test_pairs):
        assert pa.identity_id == pb.identity_id
        np.testing.assert_array_equal(pa.image, pb.image)
        np.testing.assert_array_equal(pa.tokens, pb.tokens)
        assert pa.dropped == pb.dropped and pa.swapped == pb.swapped
    c = generate_corpus(_cfg(seed=1))
    assert any(p.image.tobytes() != q.image.tobytes()
               for p, q in zip(a.train_pairs, c.train_pairs))


def test_identities_and_splits():
    corpus = generate_corpus(_cfg())
    assert [o.identity_id for o in corpus.objects] == list(range(17))
    assert len({o.attributes for o in corpus.objects}) == 17
    assert len(corpus.train_pairs) == 12 * 3
    assert len(corpus.test_pairs) == 5 * 3
    train_ids = {p.identity_id for p in corpus.train_pairs}
    test_ids = {p.identity_id for p in corpus.test_pairs}
    assert train_ids == set(range(12))
    assert test_ids == set(range(12, 17))
    assert not train_ids & test_ids


def test_image_layout():
    cfg = _cfg(image_noise_sigma=0.0)
    corpus = generate_corpus(cfg)
    V = cfg.values_per_slot
    for pair in corpus.train_pairs[:6]:
        attrs = corpus.objects[pair.identity_id].attributes
        assert pair.image.size == cfg.image_dim
        block = pair.image[:cfg.n_slots * V]
        want = np.zeros_like(block)
        for s, v in enumerate(attrs):
            want[s * V + v] = 1.0
        np.testing.assert_array_equal(block, want)
        assert np.any(pair.image[cfg.n_slots * V:] != 0.0)


def test_clean_captions_mention_every_slot():
    corpus = generate_corpus(_cfg(p_drop=0.0, p_swap=0.0))
    for pair in corpus.train_pairs:
        attrs = corpus.objects[pair.identity_id].attributes
        mentions = corpus.tokenizer.decode(pair.tokens)
        assert mentions == list(enumerate(attrs))
        assert pair.dropped == () and pair.swapped == ()


def test_full_dropout_leaves_frame_tokens_only():
    corpus = generate_corpus(_cfg(p_drop=1.0))
    for pair in corpus.train_pairs:
        np.testing.assert_array_equal(pair.tokens, [BOS_ID, EOS_ID])
        assert len(pair.dropped) == corpus.config.n_slots


def test_ambiguity_rates_match_configuration():
    cfg = _cfg(n_train_identities=320, n_test_identities=5,
               pairs_per_identity=8, p_drop=0.3, p_swap=0.1)
    corpus = generate_corpus(cfg)
    slots = cfg.n_slots * len(corpus.train_pairs)
    assert slots >= 10_000
    n_drop = sum(len(p.dropped) for p in corpus.train_pairs)
    n_swap = sum(len(p.swapped) for p in corpus.train_pairs)
    assert abs(n_drop / slots - 0.3) < 0.02
    assert abs(n_swap / (slots - n_drop) - 0.1) < 0.02


def test_swapped_mentions_are_wrong_but_in_range():
    corpus = generate_corpus(_cfg(p_drop=0.0, p_swap=1.0))
    for pair in corpus.train_pairs:
        attrs = corpus.objects[pair.identity_id].attributes
        for slot, value in corpus.tokenizer.decode(pair.tokens):
            assert 0 <= value < corpus.config.values_per_slot
            assert value != attrs[slot]


def test_tokens_fit_declared_vocab():
    corpus = generate_corpus(_cfg())
    top = max(int(p.tokens.max()) for p in corpus.train_pairs + corpus.test_pairs)
    assert top < corpus.config.vocab_size


# ------------------------------------------------------------------ batching

def test_batch_balance_over_many_seeds():
    corpus = generate_corpus(_cfg())
    for seed in range(100):
        batch = sample_batch(corpus, 5, 2, seed=seed)
        assert len(batch) == 10
        ids, counts = np.unique(batch.labels, return_counts=True)
        assert ids.size == 5
        np.testing.assert_array_equal(counts, 2)
        assert all(i in range(12) for i in ids)
    assert batch.images.shape == (10, corpus.config.image_dim)
    assert len(batch.token_seqs) == 10


def test_batch_deterministic_in_seed():
    corpus = generate_corpus(_cfg())
    a = sample_batch(corpus, 5, 2, seed=9)
    b = sample_batch(corpus, 5, 2, seed=9)
    c = sample_batch(corpus, 5, 2, seed=10)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.images, b.images)
    assert a.labels.tobytes() != c.labels.tobytes() or \
        a.images.tobytes() != c.images.tobytes()


def test_batch_validation():
    corpus = generate_corpus(_cfg())
    with pytest.raises(ValueError):
        sample_batch(corpus, 13, 2, seed=0)
    with pytest.raises(ValueError):
        sample_batch(corpus, 5, 4, seed=0)


# ------------------------------------------------------------------- storage

def test_save_load_round_trip(tmp_path):
    # the default mix, an empty test split, and captions with no slot tokens
    for changes in ({}, {"n_test_identities": 0}, {"p_drop": 1.0}):
        corpus = generate_corpus(_cfg(**changes))
        path = tmp_path / "corpus.bin"
        save_corpus(corpus, str(path))
        loaded = load_corpus(str(path))
        assert loaded.config == corpus.config
        assert loaded.objects == corpus.objects
        assert all(type(o.identity_id) is int and all(type(a) is int for a in o.attributes)
                   for o in loaded.objects)
        assert [len(loaded.train_pairs), len(loaded.test_pairs)] == \
            [len(corpus.train_pairs), len(corpus.test_pairs)]
        for pa, pb in zip(corpus.train_pairs + corpus.test_pairs,
                          loaded.train_pairs + loaded.test_pairs):
            assert pa.identity_id == pb.identity_id and type(pb.identity_id) is int
            assert pa.tokens.dtype == pb.tokens.dtype == np.int64
            assert pb.image.dtype == np.float64
            np.testing.assert_array_equal(pa.image, pb.image)
            np.testing.assert_array_equal(pa.tokens, pb.tokens)
            assert pa.dropped == pb.dropped and pa.swapped == pb.swapped
            assert all(type(s) is int for s in pb.dropped + pb.swapped)
        again = tmp_path / "again.bin"
        save_corpus(loaded, str(again))
        assert path.read_bytes() == again.read_bytes()


def _parent_layout(corpus) -> bytes:
    """A corpus in the unversioned per-record layout that preceded the
    shared file container."""
    def ints(fmt, values):
        return struct.pack(f"<H{len(values)}{fmt}", len(values), *values)

    cfg = json.dumps(asdict(corpus.config), sort_keys=True, separators=(",", ":")).encode()
    out = [b"RFCORP01", struct.pack("<I", len(cfg)), cfg,
           struct.pack("<I", len(corpus.objects))]
    out += [struct.pack("<i", o.identity_id) + ints("h", o.attributes) for o in corpus.objects]
    out.append(struct.pack("<II", len(corpus.train_pairs), len(corpus.test_pairs)))
    for p in corpus.train_pairs + corpus.test_pairs:
        out += [struct.pack(f"<iI{len(p.tokens)}i", p.identity_id, len(p.tokens), *p.tokens),
                struct.pack(f"<I{len(p.image)}d", len(p.image), *p.image),
                ints("h", p.dropped), ints("h", p.swapped)]
    return b"".join(out)


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTACORP" + b"\x00" * 64)
    with pytest.raises(ValueError, match="bad magic"):
        load_corpus(str(path))
    # the old layout keeps the magic but has its config length where the
    # version now sits
    path.write_bytes(_parent_layout(generate_corpus(_cfg())))
    with pytest.raises(ValueError, match=r"corpus file: unsupported version \d+$"):
        load_corpus(str(path))


def test_load_names_the_record_a_cut_file_ends_in(tmp_path):
    path = tmp_path / "corpus.bin"
    save_corpus(generate_corpus(_cfg()), str(path))
    blob = path.read_bytes()
    mlen = int.from_bytes(blob[12:16], "little")
    cuts = {0: "header", 7: "header", 15: "header", 16: "manifest", 15 + mlen: "manifest"}
    for entry in json.loads(blob[16:16 + mlen])["arrays"]:
        size = 8 * math.prod(entry["shape"])
        if size:                       # a cut one byte short of the array's end
            cuts[15 + mlen + entry["offset"] + size] = f"array '{entry['name']}'"
    assert len(blob) - 1 in cuts and "array 'train.image'" in cuts.values()
    for cut, record in cuts.items():
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match=f"^corpus file: truncated in {re.escape(record)}"):
            load_corpus(str(path))


def test_load_names_a_bad_manifest(tmp_path):
    path = tmp_path / "corpus.bin"
    save_corpus(generate_corpus(_cfg()), str(path))
    blob = path.read_bytes()
    # a manifest that is not JSON, one with no arrays entry, and arrays
    # entries with no shape, offset or name
    for bad in (blob[:16] + b"x" + blob[17:], blob.replace(b'"arrays"', b'"arrayz"', 1),
                blob.replace(b'"shape"', b'"shapx"', 1),
                blob.replace(b'"offset"', b'"offsex"', 1),
                blob.replace(b'"name"', b'"namx"', 1)):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="^corpus file: bad manifest$"):
            load_corpus(str(path))
    # a well-formed manifest that lists no train.image array
    path.write_bytes(blob.replace(b'"name":"train.image"', b'"name":"train.imagx"'))
    with pytest.raises(ValueError, match=r"^corpus file: missing array 'train\.image'$"):
        load_corpus(str(path))


def test_load_refuses_arrays_that_do_not_lie_back_to_back(tmp_path):
    # save_arrays writes each array where the one before it ends and the
    # file ends with the last one; any other layout misreads some array
    path = str(tmp_path / "two.bin")
    data.save_arrays(path, b"TESTARR1", 1, {},
                     {"a": np.array([1.0, 2.0, 3.0]), "b": np.array([10.0, 11.0, 12.0])})
    blob = open(path, "rb").read()
    b_entry = b'"name":"b","offset":24,"shape":[3]'
    assert data.load_arrays(path, b"TESTARR1", 1, "test file")[1]["b"].tolist() == [10, 11, 12]
    for bad, error in ((blob.replace(b'"offset":24', b'"offset":16'),
                        r"array 'b' at offset 16, not 24"),
                       (blob.replace(b'"offset":0', b'"offset":8'),
                        r"array 'a' at offset 8, not 0"),
                       (blob.replace(b_entry, b_entry.replace(b"[3]", b"[2]")),
                        r"8 bytes past the last array"),
                       (blob + b"\0", r"1 bytes past the last array")):
        assert bad != blob
        with open(path, "wb") as f:
            f.write(bad)
        with pytest.raises(ValueError, match=rf"^test file: {error}$"):
            data.load_arrays(path, b"TESTARR1", 1, "test file")


def test_load_refuses_lengths_that_do_not_split_their_values(tmp_path):
    path = str(tmp_path / "corpus.bin")
    save_corpus(generate_corpus(_cfg()), path)
    header, arrays = data.load_arrays(path, data._CORPUS_MAGIC, data._CORPUS_VERSION,
                                      "corpus file")
    count = arrays["train.tokens"].size
    lengths = arrays["train.tokens_len"]
    one_more, one_less, negative = lengths.copy(), lengths.copy(), lengths.copy()
    one_more[0] += 1
    one_less[-1] -= 1
    negative[:2] = -1, lengths[0] + lengths[1] + 1     # the total still fits
    for bad in (one_more, one_less, negative):
        data.save_arrays(path, data._CORPUS_MAGIC, data._CORPUS_VERSION, header,
                         {**arrays, "train.tokens_len": bad})
        with pytest.raises(ValueError, match=rf"^corpus file: train\.tokens_len does "
                                             rf"not split {count} values$"):
            load_corpus(path)


def test_load_refuses_a_header_config_without_exactly_its_fields(tmp_path):
    # a header that had lost p_drop and seed once loaded with their
    # defaults, and the corpus seed keys every batch a run draws
    path = str(tmp_path / "corpus.bin")
    save_corpus(generate_corpus(_cfg(p_drop=0.45, seed=9)), path)
    header, arrays = data.load_arrays(path, data._CORPUS_MAGIC, data._CORPUS_VERSION,
                                      "corpus file")
    config = header["config"]
    for bad, error in (({k: v for k, v in config.items() if k != "seed"},
                        r"missing fields \['seed'\]"),
                       ({k: v for k, v in config.items() if k not in ("p_drop", "seed")},
                        r"missing fields \['p_drop', 'seed'\]"),
                       ({**config, "colour": 1}, r"unknown fields \['colour'\]"),
                       (None, "expected an object, got NoneType")):
        data.save_arrays(path, data._CORPUS_MAGIC, data._CORPUS_VERSION,
                         {"config": bad}, arrays)
        with pytest.raises(ValueError, match=rf"^config \[corpus\]: {error}$"):
            load_corpus(path)


def test_save_corpus_replaces_the_file_atomically(tmp_path, monkeypatch):
    path = tmp_path / "corpus.bin"
    save_corpus(generate_corpus(_cfg()), str(path))
    before = path.read_bytes()

    class HalfWrite:
        # a file whose write stores half of its bytes, then fails
        def __init__(self, f):
            self.f = f

        def write(self, blob):
            self.f.write(blob[:len(blob) // 2])
            raise OSError("disk full")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

    monkeypatch.setattr(data, "open", lambda p, mode: HalfWrite(open(p, mode)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_corpus(generate_corpus(_cfg(seed=1)), str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.bin"]
