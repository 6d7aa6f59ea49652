"""Synthetic attribute-object corpus with controlled textual ambiguity.

Each identity is a distinct tuple of slot attributes.  An image feature
is the noisy one-hot encoding of those attributes plus a random
background segment; a caption lists slot-marker/value token pairs,
subject to per-slot dropout (underspecification) and value swaps
(mis-specification).  Everything is derived from a single seed through
numpy's SeedSequence, so corpora regenerate bit-exactly.
"""
from __future__ import annotations

import io
import json
import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field

import numpy as np

# reserved vocabulary ids; the tokenizer never emits PAD inside a sequence
PAD_ID = 0
MASK_ID = 1
BOS_ID = 2
EOS_ID = 3
N_SPECIAL = 4

_CORPUS_MAGIC = b"RFCORP01"

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
class ObjectSpec:
    identity_id: int
    attributes: tuple[int, ...]


@dataclass(frozen=True)
class Pair:
    """One image/caption observation of an identity.

    dropped/swapped record which slots the caption underspecifies or
    mis-states; they are diagnostics, not model input.
    """
    identity_id: int
    image: np.ndarray          # (image_dim,) float64
    tokens: np.ndarray         # (L,) int64
    dropped: tuple[int, ...]
    swapped: tuple[int, ...]


@dataclass
class Corpus:
    config: CorpusConfig
    objects: list[ObjectSpec]
    train_pairs: list[Pair]
    test_pairs: list[Pair]
    tokenizer: Tokenizer = field(init=False)

    def __post_init__(self):
        self.tokenizer = Tokenizer(self.config.n_slots, self.config.values_per_slot)

    @property
    def train_identities(self) -> list[int]:
        return list(range(self.config.n_train_identities))

    def split_pairs(self, split: str) -> list[Pair]:
        """The non-empty "train" or "test" split; anything else is an error."""
        if split not in ("train", "test"):
            raise ValueError(f"corpus: unknown split {split!r}, expected 'train' or 'test'")
        pairs = self.train_pairs if split == "train" else self.test_pairs
        if not pairs:
            raise ValueError(f"corpus: split {split!r} is empty")
        return pairs

    def pairs_of(self, identity_id: int) -> list[Pair]:
        pool = self.train_pairs if identity_id < self.config.n_train_identities else self.test_pairs
        return [p for p in pool if p.identity_id == identity_id]


def _sample_attributes(cfg: CorpusConfig, rng: np.random.Generator) -> list[tuple[int, ...]]:
    # rejection-sample distinct tuples; duplicates would make two
    # identities indistinguishable and retrieval ill-posed
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    total = cfg.n_train_identities + cfg.n_test_identities
    while len(out) < total:
        tup = tuple(int(v) for v in rng.integers(0, cfg.values_per_slot, size=cfg.n_slots))
        if tup in seen:
            continue
        seen.add(tup)
        out.append(tup)
    return out


def _make_pair(obj: ObjectSpec, cfg: CorpusConfig, tok: Tokenizer,
               rng: np.random.Generator) -> Pair:
    K, V = cfg.n_slots, cfg.values_per_slot
    onehot = np.zeros(K * V, dtype=np.float64)
    for s, v in enumerate(obj.attributes):
        onehot[s * V + v] = 1.0
    image = np.concatenate([
        onehot + rng.normal(0.0, cfg.image_noise_sigma, size=K * V),
        rng.normal(0.0, 1.0, size=cfg.background_dims),
    ])

    dropped, swapped, mentions = [], [], []
    for s, v in enumerate(obj.attributes):
        if rng.random() < cfg.p_drop:
            dropped.append(s)
            continue
        if rng.random() < cfg.p_swap:
            wrong = int(rng.integers(0, V - 1))
            if wrong >= v:
                wrong += 1
            swapped.append(s)
            mentions.append((s, wrong))
        else:
            mentions.append((s, v))
    tokens = tok.encode(mentions)
    return Pair(obj.identity_id, image, tokens, tuple(dropped), tuple(swapped))


def generate_corpus(cfg: CorpusConfig) -> Corpus:
    rng = derive_rng(cfg.seed, STREAM_CORPUS)
    attrs = _sample_attributes(cfg, rng)
    objects = [ObjectSpec(i, a) for i, a in enumerate(attrs)]
    tok = Tokenizer(cfg.n_slots, cfg.values_per_slot)
    train_pairs, test_pairs = [], []
    for obj in objects:
        target = train_pairs if obj.identity_id < cfg.n_train_identities else test_pairs
        for _ in range(cfg.pairs_per_identity):
            target.append(_make_pair(obj, cfg, tok, rng))
    return Corpus(cfg, objects, train_pairs, test_pairs)


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
    picked: list[Pair] = []
    for ident in chosen:
        pool = corpus.pairs_of(int(ident))
        take = rng.choice(len(pool), size=pairs_per_identity, replace=False)
        picked.extend(pool[int(j)] for j in take)
    order = rng.permutation(len(picked))
    picked = [picked[int(j)] for j in order]
    return PairBatch(
        images=np.stack([p.image for p in picked]),
        token_seqs=[p.tokens for p in picked],
        labels=np.asarray([p.identity_id for p in picked], dtype=np.int64),
    )


# ----------------------------------------------------------------- file io

def _config_json(cfg: CorpusConfig) -> bytes:
    return json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":")).encode()


def _write_pair(buf: io.BytesIO, p: Pair) -> None:
    buf.write(struct.pack("<iI", p.identity_id, len(p.tokens)))
    buf.write(np.asarray(p.tokens, dtype="<i4").tobytes())
    buf.write(struct.pack("<I", len(p.image)))
    buf.write(np.asarray(p.image, dtype="<f8").tobytes())
    buf.write(struct.pack("<H", len(p.dropped)))
    buf.write(np.asarray(p.dropped, dtype="<i2").tobytes())
    buf.write(struct.pack("<H", len(p.swapped)))
    buf.write(np.asarray(p.swapped, dtype="<i2").tobytes())


def _read(f: io.BufferedReader, size: int, record: str) -> bytes:
    raw = f.read(size)
    if len(raw) != size:
        raise ValueError(f"corpus file: truncated in {record}")
    return raw


def _read_pair(f: io.BufferedReader, record: str) -> Pair:
    ident, ntok = struct.unpack("<iI", _read(f, 8, record))
    tokens = np.frombuffer(_read(f, 4 * ntok, record), dtype="<i4").astype(np.int64)
    (dim,) = struct.unpack("<I", _read(f, 4, record))
    image = np.frombuffer(_read(f, 8 * dim, record), dtype="<f8").astype(np.float64)
    (nd,) = struct.unpack("<H", _read(f, 2, record))
    dropped = tuple(int(x) for x in np.frombuffer(_read(f, 2 * nd, record), dtype="<i2"))
    (ns,) = struct.unpack("<H", _read(f, 2, record))
    swapped = tuple(int(x) for x in np.frombuffer(_read(f, 2 * ns, record), dtype="<i2"))
    return Pair(ident, image, tokens, dropped, swapped)


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


def save_corpus(corpus: Corpus, path: str) -> None:
    """Little-endian flat file: magic, config echo, objects, pair records."""
    buf = io.BytesIO()
    buf.write(_CORPUS_MAGIC)
    cfg_json = _config_json(corpus.config)
    buf.write(struct.pack("<I", len(cfg_json)))
    buf.write(cfg_json)
    buf.write(struct.pack("<I", len(corpus.objects)))
    for obj in corpus.objects:
        buf.write(struct.pack("<iH", obj.identity_id, len(obj.attributes)))
        buf.write(np.asarray(obj.attributes, dtype="<i2").tobytes())
    buf.write(struct.pack("<II", len(corpus.train_pairs), len(corpus.test_pairs)))
    for p in corpus.train_pairs:
        _write_pair(buf, p)
    for p in corpus.test_pairs:
        _write_pair(buf, p)
    with atomic_write(path) as f:
        f.write(buf.getvalue())


def load_corpus(path: str) -> Corpus:
    """Read a save_corpus file; a cut file fails naming the record it ends in."""
    with open(path, "rb") as f:
        magic = _read(f, 8, "header")
        if magic != _CORPUS_MAGIC:
            raise ValueError(f"corpus file: bad magic {magic!r}")
        (n,) = struct.unpack("<I", _read(f, 4, "header"))
        cfg = CorpusConfig(**json.loads(_read(f, n, "config")))
        (nobj,) = struct.unpack("<I", _read(f, 4, "object count"))
        objects = []
        for i in range(nobj):
            ident, natt = struct.unpack("<iH", _read(f, 6, f"object {i}"))
            attrs = tuple(int(x) for x in np.frombuffer(_read(f, 2 * natt, f"object {i}"),
                                                        dtype="<i2"))
            objects.append(ObjectSpec(ident, attrs))
        ntrain, ntest = struct.unpack("<II", _read(f, 8, "pair counts"))
        train_pairs = [_read_pair(f, f"train pair {i}") for i in range(ntrain)]
        test_pairs = [_read_pair(f, f"test pair {i}") for i in range(ntest)]
    return Corpus(cfg, objects, train_pairs, test_pairs)
