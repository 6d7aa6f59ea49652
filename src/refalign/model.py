"""Model assembly and checkpoint serialization.

A retrieval model is both encoders, the reconstruction network, and the
reference bank, initialized from one seed through a fixed stream so
construction order never shifts.  Checkpoints use the data module's
file container (save_arrays): magic, version, a JSON manifest of step,
meta and (name, shape, offset), then little-endian float64 payloads.
"""
from __future__ import annotations

import numpy as np

from .data import (Corpus, PairBatch, STREAM_MODEL, derive_rng, load_arrays,
                   refuse_non_finite, save_arrays)
from .encoders import EncoderConfig, ImageEncoder, TextEncoder
from .reference import LocalReconstructor, ReferenceBank
from .tensor import Adam, ShapeError, Tensor

_CKPT_MAGIC = b"RFCKPT01"
# v2 removed the dead cross-attention and key-bias tensors; Adam state is
# stored by parameter position, so a v1 file cannot be mapped onto v2
_CKPT_VERSION = 2


class RetrievalModel:
    """Encoders + reconstructor + reference bank under one seed; the image
    encoder reads image_dim features."""

    def __init__(self, cfg: EncoderConfig, image_dim: int, n_identities: int, seed: int):
        rng = derive_rng(seed, STREAM_MODEL)
        self.cfg = cfg
        self.seed = int(seed)
        self.text_encoder = TextEncoder(cfg, rng)
        self.image_encoder = ImageEncoder(cfg, image_dim, rng)
        self.reconstructor = LocalReconstructor(cfg.d, cfg.n_heads, cfg.vocab_size, rng)
        self.bank = ReferenceBank(n_identities, cfg.d, rng)

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

    def encode_pairs(self, batch: PairBatch) -> tuple[Tensor, Tensor]:
        """-> (text, image) global features of the batch, unit rows (B, d)."""
        text, _, _ = self.text_encoder.encode_batch(batch.token_seqs)
        return text, self.image_encoder.encode_batch(batch.images)


def model_for_corpus(cfg: EncoderConfig, corpus: Corpus, seed: int) -> RetrievalModel:
    if corpus.config.vocab_size > cfg.vocab_size:
        raise ValueError(f"model: corpus needs vocab {corpus.config.vocab_size}, "
                         f"encoder provides {cfg.vocab_size}")
    if corpus.config.max_tokens > cfg.max_seq_len:
        raise ValueError(f"model: corpus captions reach {corpus.config.max_tokens} tokens, "
                         f"encoder caps at {cfg.max_seq_len}")
    return RetrievalModel(cfg, corpus.config.image_dim, corpus.config.n_train_identities, seed)


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
    save_arrays(path, _CKPT_MAGIC, _CKPT_VERSION, {"step": int(step), "meta": meta},
                _array_table(params, optimizer))


def read_checkpoint(path: str) -> tuple[int, dict, dict[str, np.ndarray]]:
    """-> (step, meta, name -> array); validates framing, not shapes.  A
    header whose step is not an integer or whose meta is not an object
    fails as a bad manifest."""
    header, arrays = load_arrays(path, _CKPT_MAGIC, _CKPT_VERSION, "checkpoint")
    if not (isinstance(header.get("step"), int) and isinstance(header.get("meta"), dict)):
        raise ValueError("checkpoint: bad manifest")
    return header["step"], header["meta"], arrays


def load_checkpoint(path: str, params: dict[str, Tensor],
                    optimizer: Adam | None = None) -> tuple[int, dict]:
    """Read a checkpoint and restore() its arrays; -> (step, meta)."""
    step, meta, arrays = read_checkpoint(path)
    restore(arrays, params, optimizer)
    return step, meta


def restore(arrays: dict[str, np.ndarray], params: dict[str, Tensor],
            optimizer: Adam | None = None) -> None:
    """Write a checkpoint's arrays into the parameters (and optimizer
    state) in place.  Every name, shape and value is checked before
    anything is written, so one with a missing parameter, a misshapen
    one, an array that is neither a parameter nor `adam.*` state, or a
    non-finite value in any array is refused and leaves the model as it
    was."""
    for name, arr in arrays.items():
        if name not in params and not name.startswith("adam."):
            raise KeyError(f"checkpoint: array {name!r} is not a model parameter")
        refuse_non_finite("checkpoint", name, arr)
    for name, p in params.items():
        if name not in arrays:
            raise KeyError(f"checkpoint: parameter {name!r} missing")
        if arrays[name].shape != p.data.shape:
            raise ShapeError(f"checkpoint: {name!r} has shape {arrays[name].shape}, "
                             f"model expects {p.data.shape}")
    if optimizer is not None:
        optimizer.load_state_arrays(arrays)
    for name, p in params.items():
        p.data[...] = arrays[name]
