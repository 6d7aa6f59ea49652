"""Synthetic corpus: generation, ambiguity injection, batching, storage."""
import hashlib
import json
import math
import re
import struct
from dataclasses import asdict, fields

import numpy as np
import pytest

from refalign import data
from refalign.config import trend_protocol_config
from refalign.data import (BOS_ID, EOS_ID, MASK_ID, N_SPECIAL, PAD_ID,
                           CorpusConfig, Split, Tokenizer, derive_rng,
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

def _arrays(corpus) -> dict:
    """The attributes and every split array of a corpus, by name."""
    out = {"attributes": corpus.attributes}
    for split in ("train", "test"):
        pairs = getattr(corpus, f"{split}_pairs")
        out.update({f"{split}.{f.name}": getattr(pairs, f.name) for f in fields(Split)})
    return out


def _captions(corpus, pairs=None):
    """(attribute list, token ids) of every row of pairs, train by default."""
    pairs = corpus.train_pairs if pairs is None else pairs
    return zip(corpus.attributes[pairs.identity].tolist(), pairs.token_seqs(range(len(pairs))))


def _ambiguity(corpus, pairs=None) -> list[tuple[list[int], list[int]]]:
    """(dropped, swapped) slots of every row: those its caption does not
    mention, and those it mentions with a value its identity lacks."""
    out = []
    for attrs, tokens in _captions(corpus, pairs):
        said = dict(corpus.tokenizer.decode(tokens))
        out.append(([s for s in range(len(attrs)) if s not in said],
                    [s for s, v in said.items() if v != attrs[s]]))
    return out


def test_generation_deterministic():
    a, b = _arrays(generate_corpus(_cfg())), _arrays(generate_corpus(_cfg()))
    assert a.keys() == b.keys()
    for name, arr in a.items():
        assert arr.dtype == b[name].dtype
        np.testing.assert_array_equal(arr, b[name])
    c = generate_corpus(_cfg(seed=1))
    assert any(p.tobytes() != q.tobytes() for p, q in zip(a["train.image"], c.train_pairs.image))


def test_identities_and_splits():
    corpus = generate_corpus(_cfg())
    assert corpus.attributes.shape == (17, 4) and corpus.attributes.dtype == np.int64
    assert len({tuple(a) for a in corpus.attributes.tolist()}) == 17
    assert len(corpus.train_pairs) == 12 * 3
    assert len(corpus.test_pairs) == 5 * 3
    # each identity's rows lie together, in identity order, split by split
    assert corpus.train_pairs.identity.dtype == np.int64
    np.testing.assert_array_equal(corpus.train_pairs.identity, np.repeat(np.arange(12), 3))
    np.testing.assert_array_equal(corpus.test_pairs.identity, np.repeat(np.arange(12, 17), 3))


def test_image_layout():
    cfg = _cfg(image_noise_sigma=0.0)
    corpus = generate_corpus(cfg)
    V = cfg.values_per_slot
    pairs = corpus.train_pairs
    assert pairs.image.shape == (len(pairs), cfg.image_dim)
    for image, ident in zip(pairs.image[:6], pairs.identity[:6]):
        block = image[:cfg.n_slots * V]
        want = np.zeros_like(block)
        for s, v in enumerate(corpus.attributes[ident]):
            want[s * V + v] = 1.0
        np.testing.assert_array_equal(block, want)
        assert np.any(image[cfg.n_slots * V:] != 0.0)


def test_clean_captions_mention_every_slot():
    corpus = generate_corpus(_cfg(p_drop=0.0, p_swap=0.0))
    for attrs, tokens in _captions(corpus):
        assert corpus.tokenizer.decode(tokens) == list(enumerate(attrs))
    assert all(dropped == swapped == [] for dropped, swapped in _ambiguity(corpus))


def test_full_dropout_leaves_frame_tokens_only():
    corpus = generate_corpus(_cfg(p_drop=1.0))
    for _, tokens in _captions(corpus):
        np.testing.assert_array_equal(tokens, [BOS_ID, EOS_ID])
    assert all(dropped == list(range(corpus.config.n_slots)) and swapped == []
               for dropped, swapped in _ambiguity(corpus))


def test_ambiguity_rates_match_configuration():
    cfg = _cfg(n_train_identities=320, n_test_identities=5,
               pairs_per_identity=8, p_drop=0.3, p_swap=0.1)
    corpus = generate_corpus(cfg)
    slots = cfg.n_slots * len(corpus.train_pairs)
    assert slots >= 10_000
    rows = _ambiguity(corpus)
    n_drop = sum(len(dropped) for dropped, _ in rows)
    n_swap = sum(len(swapped) for _, swapped in rows)
    assert abs(n_drop / slots - 0.3) < 0.02
    assert abs(n_swap / (slots - n_drop) - 0.1) < 0.02


def test_swapped_mentions_are_wrong_but_in_range():
    corpus = generate_corpus(_cfg(p_drop=0.0, p_swap=1.0))
    for attrs, tokens in _captions(corpus):
        for slot, value in corpus.tokenizer.decode(tokens):
            assert 0 <= value < corpus.config.values_per_slot
            assert value != attrs[slot]


def test_tokens_fit_declared_vocab():
    corpus = generate_corpus(_cfg())
    top = max(int(corpus.train_pairs.tokens.max()), int(corpus.test_pairs.tokens.max()))
    assert top < corpus.config.vocab_size


def test_split_arrays_are_read_only(tmp_path):
    # encode_split hands the encoders views of these arrays
    corpus = generate_corpus(_cfg())
    path = str(tmp_path / "corpus.bin")
    save_corpus(corpus, path)
    for source in (corpus, load_corpus(path)):
        with pytest.raises(ValueError, match="read-only"):
            source.train_pairs.image[0, 0] = 1.0
        for name, arr in _arrays(source).items():
            assert not arr.flags.writeable, name
        assert all(not row.flags.writeable for row in source.train_pairs.token_seqs([0, 5]))


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
        want, got = _arrays(corpus), _arrays(loaded)
        assert want.keys() == got.keys()
        for name, arr in want.items():
            assert arr.dtype == got[name].dtype == (np.float64 if name.endswith(".image")
                                                    else np.int64), name
            np.testing.assert_array_equal(arr, got[name])
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
           struct.pack("<I", len(corpus.attributes))]
    out += [struct.pack("<i", i) + ints("h", a) for i, a in enumerate(corpus.attributes.tolist())]
    out.append(struct.pack("<II", len(corpus.train_pairs), len(corpus.test_pairs)))
    for pairs in (corpus.train_pairs, corpus.test_pairs):
        for ident, image, tokens, (dropped, swapped) in zip(
                pairs.identity.tolist(), pairs.image,
                pairs.token_seqs(range(len(pairs))), _ambiguity(corpus, pairs)):
            out += [struct.pack(f"<iI{len(tokens)}i", ident, len(tokens), *tokens),
                    struct.pack(f"<I{len(image)}d", len(image), *image),
                    ints("h", dropped), ints("h", swapped)]
    return b"".join(out)


def test_trend_corpus_file_bytes_are_pinned(tmp_path):
    # the bytes of format version 3, from generation and from a reload
    path, again = tmp_path / "corpus.bin", tmp_path / "again.bin"
    save_corpus(generate_corpus(trend_protocol_config().corpus), str(path))
    save_corpus(load_corpus(str(path)), str(again))
    for saved in (path, again):
        blob = saved.read_bytes()
        assert len(blob) == 1_437_923
        assert hashlib.sha256(blob).hexdigest() == \
            "e80750caba49a15d6293db455f3be3c9a9d8d2b88b7462b6f389177e050fd7da"


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


def test_load_refuses_a_version_2_file(tmp_path):
    # v2 stored each row's identity and slot diagnostics beside the
    # captions; its arrays are not the ones this version reads
    path = tmp_path / "corpus.bin"
    save_corpus(generate_corpus(_cfg()), str(path))
    blob = bytearray(path.read_bytes())
    assert blob[8:12] == struct.pack("<I", 3)
    blob[8:12] = struct.pack("<I", 2)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=r"^corpus file: unsupported version 2$"):
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


def test_load_refuses_a_shape_the_file_cannot_hold_before_allocating(tmp_path):
    # np.fromfile allocates its count before it reads, so a manifest that
    # claims 2**40 values once asked for 8 TiB instead of naming the array
    path = str(tmp_path / "two.bin")
    data.save_arrays(path, b"TESTARR1", 1, {},
                     {"a": np.array([1.0, 2.0, 3.0]), "b": np.array([10.0, 11.0, 12.0])})
    blob = open(path, "rb").read()
    mlen = int.from_bytes(blob[12:16], "little")
    manifest = blob[16:16 + mlen]
    for name, offset, shape in (("a", b"0", b"[1099511627776]"),
                                ("b", b"24", b"[1048576,1048576]")):
        entry = b'"offset":%s,"shape":' % offset
        edited = manifest.replace(entry + b"[3]", entry + shape)
        assert edited != manifest
        with open(path, "wb") as f:
            f.write(blob[:12] + struct.pack("<I", len(edited)) + edited + blob[16 + mlen:])
        with pytest.raises(ValueError, match=rf"^test file: truncated in array '{name}'$"):
            data.load_arrays(path, b"TESTARR1", 1, "test file")


def test_load_refuses_arrays_that_misstate_the_corpus(tmp_path):
    # integers are stored as float64, so a non-integer once loaded cut
    # down; a token or attribute out of range once loaded, and a token
    # inside the encoder's vocabulary would have been embedded; a NaN or
    # inf image value once loaded and reached the encoders
    path = str(tmp_path / "corpus.bin")
    save_corpus(generate_corpus(_cfg()), path)
    header, arrays = data.load_arrays(path, data._CORPUS_MAGIC, data._CORPUS_VERSION,
                                      "corpus file")

    def changed(name, index, value):
        arr = arrays[name].copy()
        arr.flat[index] = value
        return {name: arr}

    count, lengths = arrays["train.tokens"].size, arrays["train.tokens_len"]
    negative = lengths.copy()
    negative[:2] = -1, lengths[0] + lengths[1] + 1     # the total still fits
    split_error = rf"train\.tokens_len does not split {count} values"
    cases = [(changed("train.tokens_len", 0, lengths[0] + 1), split_error),
             (changed("train.tokens_len", -1, lengths[-1] - 1), split_error),
             ({"train.tokens_len": negative}, split_error),
             # one length per pair and one more; the total still fits
             ({"train.tokens_len": np.append(lengths, 0)}, split_error)]
    cases += [(changed(name, 0, arrays[name].flat[0] + 0.5),
               rf"non-integer value in array '{re.escape(name)}'")
              for name in data._CORPUS_ARRAYS if not name.endswith(".image")]
    assert len(cases) == 4 + 5 and all(arrays[name].size for name in data._CORPUS_ARRAYS)
    cases += [
        (changed("test.tokens", -1, np.nan), r"non-integer value in array 'test\.tokens'"),
        ({"attributes": arrays["attributes"][:, :-1]}, r"array 'attributes' is not 17 rows of 4"),
        ({"attributes": arrays["attributes"][:-1]}, r"array 'attributes' is not 17 rows of 4"),
        ({"train.image": arrays["train.image"][:, :-1]},
         r"array 'train\.image' is not 36 rows of 32"),
        (changed("train.image", 5, np.nan), r"array 'train\.image' has a non-finite value"),
        (changed("test.image", -1, -np.inf), r"array 'test\.image' has a non-finite value"),
        (changed("train.tokens", 1, 14), r"array 'train\.tokens' has a value outside \[0, 14\)"),
        (changed("attributes", 1, 6), r"array 'attributes' has a value outside \[0, 6\)"),
    ]
    for bad, error in cases:
        data.save_arrays(path, data._CORPUS_MAGIC, data._CORPUS_VERSION, header,
                         {**arrays, **bad})
        with pytest.raises(ValueError, match=rf"^corpus file: {error}$"):
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
