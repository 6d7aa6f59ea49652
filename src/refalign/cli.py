"""Command line interface.

Subcommands cover the whole workflow: generate-corpus, train, eval,
ablate (the component table and the w sweep), gradcheck, and
fingerprint.  Every scalar run option is exposed as a flag named after
its config field; an INI config file (see read_config) supplies nested
corpus/encoder/loss sections, and explicit flags win over the file.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys

from .config import (RunConfig, config_from_dict, full_scale_config, read_config,
                     trend_protocol_config)
from .data import Corpus, CorpusConfig, generate_corpus, load_corpus, save_corpus
from .evaluation import encode_split, score_split
from .gradcheck import format_report, run_checks, stop_gradient_contracts
from .model import load_checkpoint, model_for_corpus, read_checkpoint
from .refinement import cosine_scores, refined_scores
from .train import (ablate, format_ablation_table, run_steps, start_run, train,
                    write_ablation_report)

# trend-config train steps per variant in `refalign fingerprint`
FINGERPRINT_STEPS = 20


def _add_field_flags(parser: argparse.ArgumentParser, cls) -> list[str]:
    """One flag per scalar dataclass field, default None so an absent
    flag never clobbers the config file."""
    defaults = cls()
    names = []
    for f in dataclasses.fields(cls):
        current = getattr(defaults, f.name)
        if dataclasses.is_dataclass(current):
            continue            # a nested section comes from the config file
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(current),
                            default=None, choices=f.metadata.get("choices"),
                            help=f"default {current}")
        names.append(f.name)
    return names


def _apply_field_flags(cfg, args: argparse.Namespace, names: list[str]):
    changes = {name: getattr(args, name) for name in names
               if getattr(args, name) is not None}
    return dataclasses.replace(cfg, **changes) if changes else cfg


def _add_run_options(parser: argparse.ArgumentParser) -> list[str]:
    preset = parser.add_mutually_exclusive_group()
    preset.add_argument("--config", help="INI config file")
    preset.add_argument("--full-scale", action="store_true",
                        help="start from the published large-run protocol")
    parser.add_argument("--corpus-file",
                        help="load a saved corpus instead of regenerating")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-epoch progress lines")
    return _add_field_flags(parser, RunConfig)


def _run_inputs(args: argparse.Namespace,
                names: list[str]) -> tuple[RunConfig, Corpus | None]:
    """The run's config (file or preset, then flags) and its --corpus-file
    corpus, if any.  A loaded corpus overrides the [corpus] section:
    training keys epoch accounting and batch sampling off cfg.corpus, so
    the two must agree."""
    if args.config:
        base = read_config(args.config)
    elif args.full_scale:
        base = full_scale_config()
    else:
        base = RunConfig()
    cfg = _apply_field_flags(base, args, names)
    if not args.corpus_file:
        return cfg, None
    corpus = load_corpus(args.corpus_file)
    return dataclasses.replace(cfg, corpus=corpus.config), corpus


def _comma_list(raw: str, flag: str) -> tuple:
    """A comma-separated flag value as a tuple of ints; exits naming the
    flag when a part does not parse."""
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise SystemExit(f"{flag}: expected comma-separated int values, got {raw!r}")


# ----------------------------------------------------------------- commands

def _cmd_generate_corpus(args: argparse.Namespace) -> int:
    cfg = _apply_field_flags(CorpusConfig(), args, args._field_names)
    corpus = generate_corpus(cfg)
    save_corpus(corpus, args.out)
    print(f"wrote {args.out}: {cfg.n_train_identities} train + "
          f"{cfg.n_test_identities} test identities, "
          f"{cfg.pairs_per_identity} pairs each, vocab {cfg.vocab_size}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg, corpus = _run_inputs(args, args._field_names)
    result = train(cfg, corpus=corpus,
                   resume_from=args.resume,
                   log=None if args.quiet else print)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics:    {result.metrics_jsonl}")
    for row in result.final_metrics:
        print(json.dumps(row, sort_keys=True))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    _, meta, _ = read_checkpoint(args.checkpoint)
    if "config" not in meta:
        raise ValueError(f"eval: checkpoint {args.checkpoint} records no config")
    cfg = config_from_dict(meta["config"])
    corpus = load_corpus(args.corpus_file) if args.corpus_file else generate_corpus(cfg.corpus)
    model = model_for_corpus(cfg.encoder, corpus, cfg.seed)
    load_checkpoint(args.checkpoint, model.named_parameters())
    w = cfg.loss.refine_weight if args.w is None else args.w
    directions = ("t2i", "i2t") if args.direction == "both" else (args.direction,)
    text, image, labels = encode_split(model, corpus, args.split)
    for direction in directions:
        result = score_split(text, image, labels, model.bank.matrix(), direction,
                             args.refine, w, args.ap_n)
        print(json.dumps({"direction": direction, "refined": args.refine,
                          "w": w if args.refine else None, **result.metrics},
                         sort_keys=True))
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    base, corpus = _run_inputs(args, args._field_names)
    report = ablate(base, seeds=_comma_list(args.seeds, "--seeds"), corpus=corpus,
                    log=None if args.quiet else print)
    json_path, csv_path = write_ablation_report(report, base.out_dir)
    print(format_ablation_table(report))
    print(f"report: {json_path}")
    print(f"        {csv_path}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    results = run_checks(trials=args.trials, seed=args.seed)
    contracts = stop_gradient_contracts()
    print(format_report(results))
    print()
    print(format_report(contracts))
    ok = all(r.passed for r in results) and all(r.passed for r in contracts)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _sha256(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else part.tobytes())
    return digest.hexdigest()


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    """sha256 lines that change when a bit of training or scoring does:
    per variant, the first FINGERPRINT_STEPS trend-config steps through
    train()'s own start_run and run_steps (losses, parameters, Adam
    moments); then the untrained model's test features, t2i scores and
    rankings."""
    cfg = trend_protocol_config()
    corpus = generate_corpus(cfg.corpus)
    for variant in ("Baseline", "A", "C"):
        run = cfg.with_variant(variant)
        model, _, optimizer, schedule = start_run(run, corpus)
        losses = list(run_steps(model, optimizer, corpus, run, schedule,
                                1, FINGERPRINT_STEPS))
        print(f"{variant:<16}", _sha256(repr(losses).encode(),
                                       *(p.data for p in optimizer.params),
                                       *optimizer.state_arrays().values()))
    model = model_for_corpus(cfg.encoder, corpus, cfg.seed)
    text, image, labels = encode_split(model, corpus, "test")
    bank = model.bank.matrix()
    w = cfg.loss.refine_weight
    for name, arrays in (
            ("test features", (text, image, labels)),
            ("t2i plain", (cosine_scores(text, image),)),
            ("t2i reranked", (refined_scores(text, image, bank, w),)),
            ("t2i ranking", (score_split(text, image, labels, bank, "t2i").rankings,)),
            ("i2t ranking", (score_split(text, image, labels, bank, "i2t").rankings,))):
        print(f"{name:<16}", _sha256(*arrays))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refalign",
        description="Reference-guided image-text retrieval on a synthetic "
                    "attribute corpus.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-corpus", help="write a corpus file")
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(func=_cmd_generate_corpus,
                   _field_names=_add_field_flags(p, CorpusConfig))

    p = sub.add_parser("train", help="run one training configuration")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.set_defaults(func=_cmd_train, _field_names=_add_run_options(p))

    p = sub.add_parser("eval", help="score a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus-file",
                   help="load a saved corpus instead of regenerating")
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--direction", choices=("t2i", "i2t", "both"),
                   default="both")
    p.add_argument("--refine", action="store_true",
                   help="rerank through the reference bank")
    p.add_argument("--w", type=float, default=None,
                   help="refinement fusion weight (default: trained value)")
    p.add_argument("--ap-n", type=int, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="component ablation plus the w sweep")
    p.add_argument("--seeds", default="0,1,2",
                   help="comma-separated seeds (default 0,1,2)")
    p.set_defaults(func=_cmd_ablate, _field_names=_add_run_options(p))

    p = sub.add_parser("gradcheck", help="finite-difference and "
                                         "stop-gradient checks")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("fingerprint", help="sha256 of the first trend-config "
                                           "steps and of an untrained model's scores")
    p.set_defaults(func=_cmd_fingerprint)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval" and args.w is not None and not args.refine:
        parser.error("eval: --w sets the reranking weight, so it needs --refine")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
