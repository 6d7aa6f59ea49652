"""Run configuration: one dataclass tree, one INI-style file format.

Sections [run], [corpus], [encoder], [loss] mirror the dataclasses
field-for-field.  Ablation flags live in [run]; their dependency rules
(fusion or reconstruction require guidance, refinement requires a
trained bank) are enforced before any work starts.
"""
from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field, replace

from .data import CorpusConfig
from .encoders import EncoderConfig
from .losses import LossConfig

W_SWEEP_GRID = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)

VARIANT_ORDER = ("Baseline", "A", "B", "C", "Full")
# training flags per ablation row; B and Full add refinement at eval time
_VARIANT_FLAGS = {
    "Baseline": dict(use_guidance=False, use_global_fusion=False,
                     use_local_reconstruction=False, use_refinement=False),
    "A": dict(use_guidance=True, use_global_fusion=True,
              use_local_reconstruction=False, use_refinement=False),
    "B": dict(use_guidance=True, use_global_fusion=True,
              use_local_reconstruction=False, use_refinement=True),
    "C": dict(use_guidance=True, use_global_fusion=True,
              use_local_reconstruction=True, use_refinement=False),
    "Full": dict(use_guidance=True, use_global_fusion=True,
                 use_local_reconstruction=True, use_refinement=True),
}


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
    use_guidance: bool = False            # pull features toward references
    use_global_fusion: bool = False       # pull references toward features
    use_local_reconstruction: bool = False
    use_refinement: bool = False          # rerank through the bank at eval

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
        if (self.use_global_fusion or self.use_local_reconstruction) and not self.use_guidance:
            raise ValueError("config: fusion and reconstruction rely on guidance; "
                             "enable use_guidance")
        if self.use_refinement and not (self.use_global_fusion or self.use_local_reconstruction):
            raise ValueError("config: refinement needs a trained bank; enable "
                             "use_global_fusion or use_local_reconstruction")

    @property
    def steps_per_epoch(self) -> int:
        return self.corpus.n_train_identities // self.batch_identities

    def with_variant(self, name: str) -> "RunConfig":
        if name not in _VARIANT_FLAGS:
            raise KeyError(f"config: unknown ablation variant {name!r}; "
                           f"pick from {VARIANT_ORDER}")
        return replace(self, **_VARIANT_FLAGS[name], run_id=f"{self.run_id}-{name}")

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed, run_id=f"{self.run_id}-s{seed}")


def full_scale_config() -> RunConfig:
    """The published protocol: 20 epochs, 2 warmup, peak 4e-5, batches of
    45 identities x 2 pairs.  Desk corpora stay attached; only the
    optimization schedule scales up."""
    return RunConfig(epochs=20, warmup_epochs=2, peak_lr=4e-5,
                     batch_identities=45, batch_pairs=2,
                     corpus=CorpusConfig(),
                     use_guidance=True, use_global_fusion=True,
                     use_local_reconstruction=True, use_refinement=True,
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
    corpus = CorpusConfig(image_noise_sigma=0.2, n_test_identities=100,
                          pairs_per_identity=8, p_drop=0.4)
    return RunConfig(corpus=corpus,
                     encoder=EncoderConfig(d=32, image_input_dim=corpus.image_dim),
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


def _fill(cls, parser: configparser.ConfigParser, name: str, **nested):
    """Build cls from section [name] (defaults where it or a key is
    absent) plus the already-built nested sections."""
    defaults = cls()
    known = {f.name for f in dataclasses.fields(cls)} - set(nested)
    kwargs = {}
    section = parser[name] if parser.has_section(name) else {}
    for key, raw in section.items():
        if key not in known:
            raise KeyError(f"config file: unknown key {key!r} in [{name}]")
        kwargs[key] = _coerce(raw, type(getattr(defaults, key)))
    return cls(**nested, **kwargs)


def read_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
    with open(path) as f:
        parser.read_file(f)
    for sec in parser.sections():
        if sec != "run" and sec not in _NESTED:
            raise KeyError(f"config file: unknown section [{sec}]")
    nested = {name: _fill(cls, parser, name) for name, cls in _NESTED.items()}
    return _fill(RunConfig, parser, "run", **nested)


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
    nested = {name: cls(**payload[name]) for name, cls in _NESTED.items()}
    return RunConfig(**{**payload, **nested})
