"""Synthetic attribute-object corpus with controlled textual ambiguity.

Each identity is a distinct tuple of slot attributes.  An image feature
is the noisy one-hot encoding of those attributes plus a random
background segment; a caption lists slot-marker/value token pairs,
subject to per-slot dropout (underspecification) and value swaps
(mis-specification).  Everything is derived from a single seed through
numpy's SeedSequence, so corpora regenerate bit-exactly.
"""
from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, fields

import numpy as np

# reserved vocabulary ids; the tokenizer never emits PAD inside a sequence
PAD_ID = 0
MASK_ID = 1
BOS_ID = 2
EOS_ID = 3
N_SPECIAL = 4

_CORPUS_MAGIC = b"RFCORP01"
# v1 wrote per-pair struct records with no version field; its config
# length sits where later versions keep the version, so v1 files are
# refused.  v2 also stored arrays that the config and the tokens fix.
_CORPUS_VERSION = 3
_CORPUS_ARRAYS = ("attributes", *(f"{split}.{name}" for split in ("train", "test")
                                  for name in ("image", "tokens", "tokens_len")))

# fixed stream tags so independent consumers of one seed never collide
STREAM_CORPUS = 11
STREAM_BATCH = 23
STREAM_MODEL = 37
STREAM_MASK = 53


def derive_rng(seed: int, stream: int, *indices: int) -> np.random.Generator:
    """A generator keyed by (seed, stream, indices); stable across runs."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((int(seed), int(stream)) + tuple(int(i) for i in indices))))


@dataclass(frozen=True)
class CorpusConfig:
    n_train_identities: int = 200
    n_test_identities: int = 50
    pairs_per_identity: int = 4
    n_slots: int = 6
    values_per_slot: int = 8
    p_drop: float = 0.3
    p_swap: float = 0.1
    image_noise_sigma: float = 0.1
    background_dims: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.n_train_identities < 1 or self.n_test_identities < 0:
            raise ValueError(f"corpus: bad identity counts {self.n_train_identities}/{self.n_test_identities}")
        if self.pairs_per_identity < 1:
            raise ValueError(f"corpus: pairs_per_identity must be >= 1, got {self.pairs_per_identity}")
        if self.n_slots < 1 or self.values_per_slot < 2:
            raise ValueError(f"corpus: need >= 1 slot with >= 2 values, got {self.n_slots}x{self.values_per_slot}")
        total = self.n_train_identities + self.n_test_identities
        if total > self.values_per_slot ** self.n_slots:
            raise ValueError(f"corpus: {total} identities cannot be distinct over "
                             f"{self.values_per_slot}^{self.n_slots} attribute tuples")
        # rates of exactly 1 are legal: p_drop=1 leaves only BOS/EOS texts
        if not (0.0 <= self.p_drop <= 1.0 and 0.0 <= self.p_swap <= 1.0):
            raise ValueError(f"corpus: ambiguity rates out of range ({self.p_drop}, {self.p_swap})")
        if self.image_noise_sigma < 0.0 or self.background_dims < 0:
            raise ValueError("corpus: negative noise or background size")

    @property
    def image_dim(self) -> int:
        return self.n_slots * self.values_per_slot + self.background_dims

    @property
    def vocab_size(self) -> int:
        # specials + slot markers + one shared token per value index
        return N_SPECIAL + self.n_slots + self.values_per_slot

    @property
    def max_tokens(self) -> int:
        # BOS + (marker, value) per slot + EOS
        return 2 + 2 * self.n_slots


class Tokenizer:
    """Maps (slot, value) mentions to token ids and back.

    Layout: specials occupy [0, 4); slot markers follow; after those one
    token per value index, shared across slots.  A value token alone is
    ambiguous; its meaning comes from the marker before it, the way a
    color word needs its noun.
    """

    def __init__(self, n_slots: int, values_per_slot: int):
        self.n_slots = n_slots
        self.values_per_slot = values_per_slot
        self.vocab_size = N_SPECIAL + n_slots + values_per_slot

    def marker(self, slot: int) -> int:
        if not 0 <= slot < self.n_slots:
            raise ValueError(f"tokenizer: slot {slot} out of range")
        return N_SPECIAL + slot

    def value_token(self, slot: int, value: int) -> int:
        if not 0 <= slot < self.n_slots:
            raise ValueError(f"tokenizer: slot {slot} out of range")
        if not 0 <= value < self.values_per_slot:
            raise ValueError(f"tokenizer: value {value} out of range")
        return N_SPECIAL + self.n_slots + value

    def encode(self, mentions) -> np.ndarray:
        """mentions: iterable of (slot, value), already in caption order."""
        ids = [BOS_ID]
        for slot, value in mentions:
            ids.append(self.marker(slot))
            ids.append(self.value_token(slot, value))
        ids.append(EOS_ID)
        return np.asarray(ids, dtype=np.int64)

    def decode(self, ids) -> list[tuple[int, int]]:
        out = []
        slot = None
        for t in np.asarray(ids).tolist():
            if t < N_SPECIAL:
                continue
            if t < N_SPECIAL + self.n_slots:
                slot = t - N_SPECIAL
            else:
                if slot is None:
                    raise ValueError("tokenizer: value token without a marker")
                out.append((slot, t - N_SPECIAL - self.n_slots))
                slot = None
        return out


@dataclass(frozen=True)
class Split:
    """A split as read-only arrays, one row per image/caption pair and
    each identity's rows together, in identity order.  Row r's caption
    is tokens[tokens_offsets[r]:tokens_offsets[r + 1]]; the slots it
    omits or mis-states show against its identity's attributes."""
    identity: np.ndarray          # (n,) int64
    image: np.ndarray             # (n, image_dim) float64
    tokens: np.ndarray            # int64 token ids
    tokens_offsets: np.ndarray    # (n + 1,) int64

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)

    def __len__(self) -> int:
        return self.identity.size

    def token_seqs(self, rows) -> list[np.ndarray]:
        """The token ids of each of rows, as views."""
        at = self.tokens_offsets
        return [self.tokens[at[r]:at[r + 1]] for r in rows]


@dataclass
class Corpus:
    config: CorpusConfig
    attributes: np.ndarray        # (identities, n_slots) int64, row = identity id
    train_pairs: Split
    test_pairs: Split
    tokenizer: Tokenizer = field(init=False)

    def __post_init__(self):
        self.attributes.setflags(write=False)
        self.tokenizer = Tokenizer(self.config.n_slots, self.config.values_per_slot)

    def split_pairs(self, split: str) -> Split:
        """The non-empty "train" or "test" split; anything else is an error."""
        if split not in ("train", "test"):
            raise ValueError(f"corpus: unknown split {split!r}, expected 'train' or 'test'")
        pairs = self.train_pairs if split == "train" else self.test_pairs
        if not pairs:
            raise ValueError(f"corpus: split {split!r} is empty")
        return pairs


def _sample_attributes(cfg: CorpusConfig, rng: np.random.Generator) -> np.ndarray:
    # rejection-sample distinct tuples; duplicates would make two
    # identities indistinguishable and retrieval ill-posed
    out: dict[tuple[int, ...], None] = {}      # keeps the first draw of each
    while len(out) < cfg.n_train_identities + cfg.n_test_identities:
        out[tuple(rng.integers(0, cfg.values_per_slot, size=cfg.n_slots).tolist())] = None
    return np.array(list(out), dtype=np.int64)


def _layout(first: int, count: int, cfg: CorpusConfig) -> np.ndarray:
    """Each row's identity in a split of identities first..first+count-1."""
    return np.repeat(np.arange(first, first + count, dtype=np.int64), cfg.pairs_per_identity)


def _make_split(attributes: np.ndarray, first: int, cfg: CorpusConfig, tok: Tokenizer,
                rng: np.random.Generator) -> Split:
    """pairs_per_identity rows per identity row of attributes, ids from first."""
    K, V = cfg.n_slots, cfg.values_per_slot
    attrs = np.repeat(attributes, cfg.pairs_per_identity, axis=0)
    image = np.zeros((len(attrs), cfg.image_dim))
    image[np.arange(len(attrs))[:, None], np.arange(K) * V + attrs] = 1.0   # noise added below
    tokens, offsets = [], [0]
    for row, values in zip(image, attrs.tolist()):
        row[:K * V] += rng.normal(0.0, cfg.image_noise_sigma, size=K * V)
        row[K * V:] = rng.normal(0.0, 1.0, size=cfg.background_dims)
        mentions = []
        for s, v in enumerate(values):
            if rng.random() < cfg.p_drop:
                continue
            if rng.random() < cfg.p_swap:
                wrong = int(rng.integers(0, V - 1))
                if wrong >= v:
                    wrong += 1
                mentions.append((s, wrong))
            else:
                mentions.append((s, v))
        tokens += tok.encode(mentions).tolist()
        offsets.append(len(tokens))
    return Split(_layout(first, len(attributes), cfg), image,
                 np.array(tokens, dtype=np.int64), np.array(offsets, dtype=np.int64))


def generate_corpus(cfg: CorpusConfig) -> Corpus:
    rng = derive_rng(cfg.seed, STREAM_CORPUS)
    attributes = _sample_attributes(cfg, rng)
    tok = Tokenizer(cfg.n_slots, cfg.values_per_slot)
    n = cfg.n_train_identities
    return Corpus(cfg, attributes, _make_split(attributes[:n], 0, cfg, tok, rng),
                  _make_split(attributes[n:], n, cfg, tok, rng))


# ------------------------------------------------------------------ batches

@dataclass
class PairBatch:
    images: np.ndarray            # (B, image_dim)
    token_seqs: list[np.ndarray]  # B ragged token sequences
    labels: np.ndarray            # (B,) identity ids

    def __len__(self) -> int:
        return len(self.labels)


def sample_batch(corpus: Corpus, identities_per_batch: int,
                 pairs_per_identity: int, seed: int) -> PairBatch:
    """Identity-balanced batch off the train split; pure in its seed."""
    cfg = corpus.config
    if identities_per_batch > cfg.n_train_identities:
        raise ValueError(f"batch: {identities_per_batch} identities requested, "
                         f"corpus has {cfg.n_train_identities}")
    if pairs_per_identity > cfg.pairs_per_identity:
        raise ValueError(f"batch: {pairs_per_identity} pairs per identity requested, "
                         f"corpus stores {cfg.pairs_per_identity}")
    rng = derive_rng(cfg.seed, STREAM_BATCH, seed)
    chosen = rng.choice(cfg.n_train_identities, size=identities_per_batch, replace=False)
    pool = cfg.pairs_per_identity       # identity i's pool: rows i * pool onwards
    rows = np.concatenate([ident * pool + rng.choice(pool, size=pairs_per_identity, replace=False)
                           for ident in chosen])
    rows = rows[rng.permutation(rows.size)]
    pairs = corpus.train_pairs
    return PairBatch(images=pairs.image[rows], token_seqs=pairs.token_seqs(rows),
                     labels=pairs.identity[rows])


# ----------------------------------------------------------------- file io

def exact_fields(cls, payload, name: str) -> None:
    """The one check on a stored config section: it must be an object
    holding exactly cls's fields, so a missing field is never filled
    with its default and an unknown one is never ignored."""
    if not isinstance(payload, dict):
        raise ValueError(f"config [{name}]: expected an object, got {type(payload).__name__}")
    want = [f.name for f in fields(cls)]
    problems = [f"{what} fields {keys}" for what, keys in (
        ("unknown", [key for key in payload if key not in want]),
        ("missing", [key for key in want if key not in payload])) if keys]
    if problems:
        raise ValueError(f"config [{name}]: " + ", ".join(problems))


@contextmanager
def atomic_write(path: str):
    """Binary file handle on `<path>.tmp`, moved onto path with os.replace
    once the block ends; if the block raises, the temp file is removed
    and whatever was at path stays as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_arrays(path: str, magic: bytes, version: int, header: dict,
                arrays: dict[str, np.ndarray]) -> None:
    """The one file container, for corpora and checkpoints: 8-byte magic,
    <II version and manifest length, a sorted-key JSON manifest (header
    plus each array's name, shape and payload offset), then every array
    as little-endian float64.  Written through atomic_write."""
    entries = []
    offset = 0
    for name, arr in arrays.items():
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 8
    manifest = json.dumps({**header, "arrays": entries},
                          sort_keys=True, separators=(",", ":")).encode()
    with atomic_write(path) as f:
        f.write(magic)
        f.write(struct.pack("<II", version, len(manifest)))
        f.write(manifest)
        for arr in arrays.values():
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_arrays(path: str, magic: bytes, version: int,
                what: str) -> tuple[dict, dict[str, np.ndarray]]:
    """-> (header, name -> float64 array) of a save_arrays file.  Each
    array is read straight into its own buffer, never the whole file; a
    cut file fails naming the header, the manifest or the array it ends
    in.  A manifest that is not a JSON object with an `arrays` list, or
    an entry that is not an object with a string name, an integer offset
    and a non-negative integer-list shape, fails as a bad manifest; so
    do arrays that do not lie back to back to the file's end.  An array
    the file is too short for fails before its buffer is allocated."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(16)
        if len(head) < 16:
            raise ValueError(f"{what}: truncated in header ({len(head)} of 16 bytes)")
        if head[:8] != magic:
            raise ValueError(f"{what}: bad magic {head[:8]!r}")
        got, mlen = struct.unpack_from("<II", head, 8)
        if got != version:
            raise ValueError(f"{what}: unsupported version {got}")
        raw = f.read(mlen)
        if len(raw) < mlen:
            raise ValueError(f"{what}: truncated in manifest")
        try:
            header = json.loads(raw)
        except ValueError as e:
            raise ValueError(f"{what}: bad manifest") from e
        if not isinstance(header, dict) or not isinstance(header.get("arrays"), list):
            raise ValueError(f"{what}: bad manifest")
        arrays: dict[str, np.ndarray] = {}
        end = 0
        for entry in header.pop("arrays"):
            if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                    and isinstance(entry.get("offset"), int)
                    and isinstance(entry.get("shape"), list)
                    and all(isinstance(n, int) and n >= 0 for n in entry["shape"])):
                raise ValueError(f"{what}: bad manifest")
            if entry["offset"] != end:
                raise ValueError(f"{what}: array {entry['name']!r} at offset "
                                 f"{entry['offset']}, not {end}")
            shape = tuple(entry["shape"])
            count = math.prod(shape)
            if 16 + mlen + end + 8 * count > size:
                raise ValueError(f"{what}: truncated in array {entry['name']!r}")
            arrays[entry["name"]] = np.fromfile(f, dtype="<f8", count=count).reshape(shape)
            end += 8 * count
        extra = size - (16 + mlen + end)
        if extra:
            raise ValueError(f"{what}: {extra} bytes past the last array")
    return header, arrays


def save_corpus(corpus: Corpus, path: str) -> None:
    """save_arrays at version 3: the config in the header, then only what
    it does not fix: `attributes` (identities, n_slots) and, per split,
    `image` (n, image_dim) and `tokens` as its concatenated values plus
    per-pair lengths (`tokens_len`).  Every integer is small, so exact
    in float64."""
    arrays = {"attributes": corpus.attributes}
    for split, pairs in (("train", corpus.train_pairs), ("test", corpus.test_pairs)):
        arrays.update({f"{split}.image": pairs.image, f"{split}.tokens": pairs.tokens,
                       f"{split}.tokens_len": np.diff(pairs.tokens_offsets)})
    save_arrays(path, _CORPUS_MAGIC, _CORPUS_VERSION, {"config": asdict(corpus.config)}, arrays)


def _refuse_outside(name: str, values: np.ndarray, stop: int) -> None:
    if values.size and (values.min() < 0 or values.max() >= stop):
        raise ValueError(f"corpus file: array {name!r} has a value outside [0, {stop})")


def refuse_non_finite(what: str, name: str, values: np.ndarray) -> None:
    """Refuse a NaN or inf in a loaded array; min and max propagate both,
    so no temporary the size of values is made."""
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ValueError(f"{what}: array {name!r} has a non-finite value")


def load_corpus(path: str) -> Corpus:
    """Read a save_corpus file; fails naming the header, manifest or array
    a cut file ends in, a missing array, a non-integer in an integer
    array, `attributes` not of one row per identity, an `image` not of
    one row per pair or with a non-finite value, a `tokens_len` not of
    one length per pair or whose lengths do not split their tokens, a
    token or attribute outside the config's range, and a header config
    without exactly CorpusConfig's fields.  Each row's identity comes
    from the config's row layout, as in generation."""
    header, arrays = load_arrays(path, _CORPUS_MAGIC, _CORPUS_VERSION, "corpus file")
    exact_fields(CorpusConfig, header.get("config"), "corpus")
    ints = {}
    for name in _CORPUS_ARRAYS:
        if name not in arrays:
            raise ValueError(f"corpus file: missing array {name!r}")
        if not name.endswith(".image"):
            with np.errstate(invalid="ignore"):
                ints[name] = arrays[name].astype(np.int64)
            if not np.array_equal(ints[name], arrays[name]):
                raise ValueError(f"corpus file: non-integer value in array {name!r}")
    cfg = CorpusConfig(**header["config"])
    n_train, total = cfg.n_train_identities, cfg.n_train_identities + cfg.n_test_identities
    attributes = ints["attributes"]
    if attributes.shape != (total, cfg.n_slots):
        raise ValueError(f"corpus file: array 'attributes' is not {total} rows of {cfg.n_slots}")
    _refuse_outside("attributes", attributes, cfg.values_per_slot)
    splits = []
    for split, first, count in (("train", 0, n_train), ("test", n_train, total - n_train)):
        identity, image = _layout(first, count, cfg), arrays[f"{split}.image"]
        if image.shape != (identity.size, cfg.image_dim):
            raise ValueError(f"corpus file: array '{split}.image' is not "
                             f"{identity.size} rows of {cfg.image_dim}")
        refuse_non_finite("corpus file", f"{split}.image", image)
        tokens, lengths = ints[f"{split}.tokens"], ints[f"{split}.tokens_len"]
        if lengths.shape != identity.shape or lengths.sum() != tokens.size \
                or np.any(lengths < 0):
            raise ValueError(f"corpus file: {split}.tokens_len does not split "
                             f"{tokens.size} values")
        _refuse_outside(f"{split}.tokens", tokens, cfg.vocab_size)
        splits.append(Split(identity, image, tokens, np.concatenate([[0], np.cumsum(lengths)])))
    return Corpus(cfg, attributes, *splits)
