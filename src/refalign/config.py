"""Run configuration: one dataclass tree, one INI-style file format.

Sections [run], [corpus], [encoder], [loss] mirror the dataclasses
field-for-field.  The ablation row is one [run] field, `variant`, named
as in the paper's table; the read-only properties below derive which
parts a row trains and whether it reranks at eval.
"""
from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field, replace

from .data import CorpusConfig, exact_fields
from .encoders import EncoderConfig
from .losses import LossConfig

W_SWEEP_GRID = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)

VARIANT_ORDER = ("Baseline", "A", "B", "C", "Full")


@dataclass(frozen=True)
class RunConfig:
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    epochs: int = 30
    warmup_epochs: int = 2
    peak_lr: float = 1e-3
    batch_identities: int = 8
    batch_pairs: int = 2           # pairs drawn per identity per batch
    mask_ratio: float = 0.15
    eval_every: int = 10           # epochs between test evals; 0 = final only
    seed: int = 0
    run_id: str = "run"
    out_dir: str = "runs"
    variant: str = field(default="Baseline", metadata={"choices": VARIANT_ORDER})

    def __post_init__(self):
        if not 0 < self.warmup_epochs < self.epochs:
            raise ValueError(f"config: need 0 < warmup ({self.warmup_epochs}) "
                             f"< epochs ({self.epochs})")
        if self.peak_lr <= 0.0:
            raise ValueError(f"config: peak_lr must be positive, got {self.peak_lr}")
        if self.batch_identities < 1 or self.batch_pairs < 1:
            raise ValueError(f"config: batch shape {self.batch_identities}x{self.batch_pairs}")
        if self.batch_identities > self.corpus.n_train_identities:
            raise ValueError(f"config: batch wants {self.batch_identities} identities, "
                             f"corpus has {self.corpus.n_train_identities}")
        if self.batch_pairs > self.corpus.pairs_per_identity:
            raise ValueError(f"config: batch wants {self.batch_pairs} pairs per identity, "
                             f"corpus stores {self.corpus.pairs_per_identity}")
        if not 0.0 < self.mask_ratio <= 1.0:
            raise ValueError(f"config: mask_ratio {self.mask_ratio} outside (0, 1]")
        if self.eval_every < 0:
            raise ValueError("config: eval_every must be >= 0")
        if self.variant not in VARIANT_ORDER:
            raise KeyError(f"config: unknown ablation variant {self.variant!r}; "
                           f"pick from {VARIANT_ORDER}")

    @property
    def steps_per_epoch(self) -> int:
        return self.corpus.n_train_identities // self.batch_identities

    @property
    def guided(self) -> bool:
        """Reference-guided learning plus global reference fusion: every
        row but Baseline."""
        return self.variant != "Baseline"

    @property
    def reconstructs(self) -> bool:
        """Local reconstruction of masked tokens: C and Full."""
        return self.variant in ("C", "Full")

    @property
    def reranks(self) -> bool:
        """Reference-based refinement at eval: B and Full."""
        return self.variant in ("B", "Full")

    def with_variant(self, name: str) -> "RunConfig":
        return replace(self, variant=name, run_id=f"{self.run_id}-{name}")

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed, run_id=f"{self.run_id}-s{seed}")


def full_scale_config() -> RunConfig:
    """The published protocol: 20 epochs, 2 warmup, peak 4e-5, batches of
    45 identities x 2 pairs.  Desk corpora stay attached; only the
    optimization schedule scales up."""
    return RunConfig(epochs=20, warmup_epochs=2, peak_lr=4e-5,
                     batch_identities=45, batch_pairs=2,
                     corpus=CorpusConfig(), variant="Full",
                     run_id="full-scale")


def trend_protocol_config(out_dir: str = "runs") -> RunConfig:
    """Desk-scale regime where the ablation ordering and the reranking
    sweep are both resolvable above seed noise.

    Calibrated jointly, so treat the knobs as a set: cleaner images and
    more pairs separate the variants; heavy text dropout keeps the task
    hard enough that reconstruction still helps at 120 epochs (by 140 the
    guidance-only variant catches up); d=32 keeps the reference scores
    competitive with the base similarity; bank-wide negatives stop the
    reference rows from collapsing onto their shared mean.
    """
    return RunConfig(corpus=CorpusConfig(image_noise_sigma=0.2, n_test_identities=100,
                                         pairs_per_identity=8, p_drop=0.4),
                     encoder=EncoderConfig(d=32),
                     loss=LossConfig(bank_wide_negatives=True),
                     epochs=120, eval_every=0,
                     run_id="trend", out_dir=out_dir)


# ----------------------------------------------------------------- file io

# RunConfig's nested sections; [run] holds its own scalar fields
_NESTED = {"corpus": CorpusConfig, "encoder": EncoderConfig, "loss": LossConfig}


def _coerce(raw: str, pytype):
    if pytype is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"config file: bad boolean {raw!r}")
    return pytype(raw)


def read_config(path: str) -> RunConfig:
    """RunConfig's defaults overlaid with the file's values, loaded through
    config_from_dict; an unknown section or key is refused."""
    parser = configparser.ConfigParser()
    with open(path) as f:
        parser.read_file(f)
    payload = config_as_dict(RunConfig())
    for name in parser.sections():
        if name != "run" and name not in _NESTED:
            raise KeyError(f"config file: unknown section [{name}]")
        section = payload if name == "run" else payload[name]
        for key, raw in parser[name].items():
            if key not in section or key in _NESTED:
                raise KeyError(f"config file: unknown key {key!r} in [{name}]")
            section[key] = _coerce(raw, type(section[key]))
    return config_from_dict(payload)


def write_config(cfg: RunConfig, path: str) -> None:
    parser = configparser.ConfigParser()
    sections = {"run": cfg, **{name: getattr(cfg, name) for name in _NESTED}}
    for name, obj in sections.items():
        parser[name] = {f.name: str(getattr(obj, f.name))
                        for f in dataclasses.fields(obj) if f.name not in _NESTED}
    with open(path, "w") as f:
        parser.write(f)


def config_as_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_from_dict(payload: dict) -> RunConfig:
    """Inverse of config_as_dict; every section must hold exactly its
    dataclass's fields, so a dict from an older layout is refused by name.
    Every stored config, checkpoint meta or INI file, loads through here."""
    exact_fields(RunConfig, payload, "run")
    for name, cls in _NESTED.items():
        exact_fields(cls, payload[name], name)
    nested = {name: cls(**payload[name]) for name, cls in _NESTED.items()}
    return RunConfig(**{**payload, **nested})
