"""Model assembly and checkpoint serialization.

A retrieval model is both encoders, the reconstruction network, and the
reference bank, initialized from one seed through a fixed stream so
construction order never shifts.  Checkpoints are flat binary: magic,
version, a JSON manifest of (name, shape, offset), then little-endian
float64 payloads.
"""
from __future__ import annotations

import json
import struct

import numpy as np

from .data import Corpus, PairBatch, STREAM_MODEL, atomic_write, derive_rng
from .encoders import EncodedBatch, EncoderConfig, ImageEncoder, TextEncoder
from .reference import LocalReconstructor, ReferenceBank
from .tensor import Adam, ShapeError, Tensor

_CKPT_MAGIC = b"RFCKPT01"
# v2 dropped the dead cross-attention and key-bias tensors; Adam state is
# stored by parameter position, so a v1 file cannot be mapped onto v2
_CKPT_VERSION = 2


class RetrievalModel:
    """Encoders + reconstructor + reference bank under one seed."""

    def __init__(self, cfg: EncoderConfig, train_identity_ids, seed: int):
        rng = derive_rng(seed, STREAM_MODEL)
        self.cfg = cfg
        self.seed = int(seed)
        self.text_encoder = TextEncoder(cfg, rng)
        self.image_encoder = ImageEncoder(cfg, rng)
        self.reconstructor = LocalReconstructor(cfg.d, cfg.n_heads, cfg.vocab_size, rng)
        self.bank = ReferenceBank(train_identity_ids, cfg.d, rng)

    def named_parameters(self) -> dict[str, Tensor]:
        params = (self.text_encoder.parameters()
                  + self.image_encoder.parameters()
                  + self.reconstructor.parameters()
                  + [self.bank.ref])
        out: dict[str, Tensor] = {}
        for p in params:
            if p.name is None or p.name in out:
                raise ValueError(f"model: unnamed or duplicated parameter {p.name!r}")
            out[p.name] = p
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def encode_pairs(self, batch: PairBatch) -> EncodedBatch:
        text, _, _ = self.text_encoder.encode_batch(batch.token_seqs)
        image = self.image_encoder.encode_batch(batch.images)
        return EncodedBatch(text_global=text, image_global=image,
                            labels=batch.labels)


def model_for_corpus(cfg: EncoderConfig, corpus: Corpus, seed: int) -> RetrievalModel:
    if corpus.config.vocab_size > cfg.vocab_size:
        raise ValueError(f"model: corpus needs vocab {corpus.config.vocab_size}, "
                         f"encoder provides {cfg.vocab_size}")
    if corpus.config.image_dim != cfg.image_input_dim:
        raise ValueError(f"model: corpus image dim {corpus.config.image_dim} != "
                         f"encoder input {cfg.image_input_dim}")
    if corpus.config.max_tokens > cfg.max_seq_len:
        raise ValueError(f"model: corpus captions reach {corpus.config.max_tokens} tokens, "
                         f"encoder caps at {cfg.max_seq_len}")
    return RetrievalModel(cfg, corpus.train_identities, seed)


# -------------------------------------------------------------- checkpoints

def _array_table(params: dict[str, Tensor], optimizer: Adam | None) -> dict[str, np.ndarray]:
    table = {name: p.data for name, p in params.items()}
    if optimizer is not None:
        for key, arr in optimizer.state_arrays().items():
            if key in table:
                raise ValueError(f"checkpoint: name collision on {key!r}")
            table[key] = arr
    return table


def save_checkpoint(path: str, params: dict[str, Tensor], step: int,
                    meta: dict, optimizer: Adam | None = None) -> None:
    table = _array_table(params, optimizer)
    entries = []
    offset = 0
    for name, arr in table.items():
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 8
    manifest = json.dumps({"step": int(step), "meta": meta, "arrays": entries},
                          sort_keys=True, separators=(",", ":")).encode()
    with atomic_write(path) as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<II", _CKPT_VERSION, len(manifest)))
        f.write(manifest)
        for arr in table.values():
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_checkpoint(path: str) -> tuple[int, dict, dict[str, np.ndarray]]:
    """-> (step, meta, name -> array); validates framing, not shapes."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16:
        raise ValueError(f"checkpoint: truncated in header ({len(blob)} of 16 bytes)")
    if blob[:8] != _CKPT_MAGIC:
        raise ValueError(f"checkpoint: bad magic {blob[:8]!r}")
    version, mlen = struct.unpack_from("<II", blob, 8)
    if version != _CKPT_VERSION:
        raise ValueError(f"checkpoint: unsupported version {version}")
    if len(blob) < 16 + mlen:
        raise ValueError("checkpoint: truncated in manifest")
    manifest = json.loads(blob[16:16 + mlen])
    payload = blob[16 + mlen:]
    arrays: dict[str, np.ndarray] = {}
    for entry in manifest["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        raw = payload[start:start + count * 8]
        if len(raw) != count * 8:
            raise ValueError(f"checkpoint: truncated in array {entry['name']!r}")
        arrays[entry["name"]] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    return int(manifest["step"]), manifest["meta"], arrays


def load_checkpoint(path: str, params: dict[str, Tensor],
                    optimizer: Adam | None = None) -> tuple[int, dict]:
    """Restore parameters (and optimizer state) in place; every shape is
    validated against the live model."""
    step, meta, arrays = read_checkpoint(path)
    for name, p in params.items():
        if name not in arrays:
            raise KeyError(f"checkpoint: parameter {name!r} missing")
        arr = arrays[name]
        if arr.shape != p.data.shape:
            raise ShapeError(f"checkpoint: {name!r} has shape {arr.shape}, "
                             f"model expects {p.data.shape}")
        p.data[...] = arr
    if optimizer is not None:
        optimizer.load_state_arrays(arrays)
    return step, meta
