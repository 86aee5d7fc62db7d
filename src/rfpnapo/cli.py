"""Command-line front end: pretrain | gen-pairs | align | eval | verify | corpus.

Every artifact-writing subcommand drops a `<out>.manifest.json` sidecar with
the config snapshot and input/output hashes; training commands also write
`<out>.metrics.csv`. Exit codes: 0 success, 2 config, 3 missing input,
4 shape/consistency, 5 parse, 1 anything else that went wrong numerically.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from .analytics import eval_reward, win_rate, write_eval_csv
from .config import RunConfig, load_config
from .corpus import read_corpus, run_pipeline, write_corpus
from .errors import (
    ConfigurationError,
    MissingInputError,
    ParseError,
    RfpnapoError,
    ShapeError,
)
from .fileio import fmt17, require_file, sha256_file, write_text
from .numerics import read_checkpoint, write_checkpoint
from .pnapo import AlignConfig
from .prefdata import build_dataset, read_dataset, write_dataset
from .training import run_alignment, run_pretrain
from .verify import SUITES

PRETRAIN_COLUMNS = ("step", "loss", "grad_norm")
ALIGN_COLUMNS = ("step", "loss", "margin_mean", "beta_eff_mean", "grad_norm")


def _write_metrics_csv(path: str, rows: list[dict], columns: tuple[str, ...]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        cells = [
            str(row[col]) if isinstance(row[col], int) else fmt17(row[col])
            for col in columns
        ]
        lines.append(",".join(cells))
    write_text(path, "\n".join(lines) + "\n")


def _write_manifest(
    out_path: str,
    command: list[str],
    cfg: RunConfig | None,
    inputs: list[str],
    outputs: list[str],
    wall_time_s: float,
    extras: dict | None = None,
) -> None:
    doc = {
        "artifact_version": 1,
        "command": command,
        "config": cfg.snapshot() if cfg is not None else {},
        "inputs": {p: sha256_file(p) for p in inputs},
        "outputs": {p: sha256_file(p) for p in outputs},
        "wall_time_s": wall_time_s,
    }
    if extras:
        doc.update(extras)
    write_text(out_path + ".manifest.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_pretrain(args: argparse.Namespace) -> int:
    start = time.monotonic()
    cfg = load_config(args.config)
    cfg.require("seed", "train.lr", "train.steps", "train.batch")
    spec = cfg.mlp_spec()
    params, rows = run_pretrain(
        spec,
        cfg.mixture(),
        steps=cfg.get("train.steps"),
        batch=cfg.get("train.batch"),
        lr=cfg.get("train.lr"),
        seed=cfg.get("seed"),
    )
    write_checkpoint(args.out, params, spec)
    metrics_path = args.out + ".metrics.csv"
    _write_metrics_csv(metrics_path, rows, PRETRAIN_COLUMNS)
    _write_manifest(
        args.out,
        ["pretrain", "--config", args.config, "--out", args.out],
        cfg,
        inputs=[args.config],
        outputs=[args.out, metrics_path],
        wall_time_s=time.monotonic() - start,
    )
    print(
        f"pretrain: {len(rows)} steps, final loss {fmt17(rows[-1]['loss'])}, "
        f"wrote {args.out}"
    )
    return 0


def cmd_gen_pairs(args: argparse.Namespace) -> int:
    start = time.monotonic()
    cfg = load_config(args.config)
    cfg.require("seed", "reward.kind")
    require_file(args.model, "model checkpoint")
    ref_params, spec = read_checkpoint(args.model)
    rspec = cfg.reward(spec.data_dim, spec.cond_dim)
    ref_hash = sha256_file(args.model)
    dataset = build_dataset(
        ref_params,
        spec,
        rspec,
        cfg.sampler(),
        n_records=args.n,
        base_seed=cfg.get("seed"),
        ref_hash=ref_hash,
    )
    write_dataset(args.out, dataset)
    _write_manifest(
        args.out,
        ["gen-pairs", "--config", args.config, "--model", args.model,
         "--n", str(args.n), "--out", args.out],
        cfg,
        inputs=[args.config, args.model],
        outputs=[args.out],
        wall_time_s=time.monotonic() - start,
        extras={"ref_hash": ref_hash},
    )
    print(f"gen-pairs: {len(dataset)} records from {args.model}, wrote {args.out}")
    return 0


def cmd_align(args: argparse.Namespace) -> int:
    start = time.monotonic()
    cfg = load_config(args.config)
    cfg.require("seed", "train.lr", "train.steps", "train.batch", "pnapo.beta")
    require_file(args.model, "model checkpoint")
    require_file(args.pairs, "preference dataset")
    ref_params, spec = read_checkpoint(args.model)
    dataset = read_dataset(args.pairs)
    if dataset.header.dim != spec.data_dim or dataset.header.cond_dim != spec.cond_dim:
        raise ShapeError(
            f"dataset dims (dim={dataset.header.dim}, cdim={dataset.header.cond_dim}) "
            f"do not match checkpoint (dim={spec.data_dim}, cdim={spec.cond_dim})"
        )
    acfg = AlignConfig(
        method=args.method,
        lr=cfg.get("train.lr"),
        steps=cfg.get("train.steps"),
        batch=cfg.get("train.batch"),
        schedule=cfg.schedule(),
        seed=cfg.get("seed"),
    )
    # pairs sampled from another checkpoint are the paper's off-policy
    # setting, so a mismatch is recorded and noted, never an error
    ref_hash = sha256_file(args.model)
    pairs_ref_hash = dataset.header.ref_hash
    if pairs_ref_hash != ref_hash:
        print(
            f"rfpnapo: note: {args.pairs} was sampled from refhash {pairs_ref_hash}, "
            f"not from {args.model} (sha256 {ref_hash})",
            file=sys.stderr,
        )
    params, rows = run_alignment(ref_params, spec, dataset, acfg)
    write_checkpoint(args.out, params, spec)
    metrics_path = args.out + ".metrics.csv"
    _write_metrics_csv(metrics_path, rows, ALIGN_COLUMNS)
    _write_manifest(
        args.out,
        ["align", "--config", args.config, "--model", args.model,
         "--pairs", args.pairs, "--out", args.out, "--method", args.method],
        cfg,
        inputs=[args.config, args.model, args.pairs],
        outputs=[args.out, metrics_path],
        wall_time_s=time.monotonic() - start,
        extras={
            "method": args.method,
            "ref_hash": ref_hash,
            "pairs_ref_hash": pairs_ref_hash,
            "ref_hash_match": pairs_ref_hash == ref_hash,
        },
    )
    print(
        f"align[{args.method}]: {len(rows)} steps on {len(dataset)} records, "
        f"final loss {fmt17(rows[-1]['loss'])}, wrote {args.out}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    start = time.monotonic()
    cfg = load_config(args.config)
    cfg.require("seed", "reward.kind")
    require_file(args.model, "model checkpoint")
    require_file(args.against, "comparison checkpoint")
    params_a, spec_a = read_checkpoint(args.model)
    params_b, spec_b = read_checkpoint(args.against)
    if spec_a.data_dim != spec_b.data_dim or spec_a.cond_dim != spec_b.cond_dim:
        raise ShapeError(
            f"checkpoints disagree on dims: ({spec_a.data_dim}, {spec_a.cond_dim}) "
            f"vs ({spec_b.data_dim}, {spec_b.cond_dim})"
        )
    rspec = cfg.reward(spec_a.data_dim, spec_a.cond_dim)
    sampler = cfg.sampler()
    seed = cfg.get("seed")
    rep_a = eval_reward(params_a, spec_a, rspec, args.n, sampler, seed, label="model")
    rep_b = eval_reward(params_b, spec_b, rspec, args.n, sampler, seed, label="against")
    wr = win_rate(params_a, spec_a, params_b, spec_b, rspec, args.n * spec_a.cond_dim, sampler, seed)
    rep_a = dataclasses.replace(rep_a, win_rate=wr)
    rep_b = dataclasses.replace(rep_b, win_rate=1.0 - wr)
    write_eval_csv(args.out, [rep_a, rep_b])
    _write_manifest(
        args.out,
        ["eval", "--config", args.config, "--model", args.model,
         "--against", args.against, "--n", str(args.n), "--out", args.out],
        cfg,
        inputs=[args.config, args.model, args.against],
        outputs=[args.out],
        wall_time_s=time.monotonic() - start,
    )
    for rep in (rep_a, rep_b):
        print(
            f"eval[{rep.model}]: mean reward {fmt17(rep.mean_reward)}, "
            f"median {fmt17(rep.median_reward)}, win rate {fmt17(rep.win_rate)}"
        )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = SUITES[args.suite]()
    for res in results:
        print(f"{res.name},{res.status},{fmt17(res.lhs)},{fmt17(res.rhs)},{fmt17(res.tolerance)}")
    n_pass = sum(1 for r in results if r.ok)
    print(f"suite {args.suite}: {n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 1


def cmd_corpus(args: argparse.Namespace) -> int:
    start = time.monotonic()
    cfg = load_config(args.config)
    cfg.require("seed")
    require_file(args.input, "corpus TSV")
    corpus = read_corpus(args.input)
    survivors, counts = run_pipeline(corpus, cfg.corpus_config(), seed=cfg.get("seed"))
    write_corpus(args.out, survivors)
    _write_manifest(
        args.out,
        ["corpus", args.input, "--config", args.config, "--out", args.out],
        cfg,
        inputs=[args.config, args.input],
        outputs=[args.out],
        wall_time_s=time.monotonic() - start,
        extras={"stage_counts": counts},
    )
    stages = ", ".join(f"{k}={v}" for k, v in counts.items())
    print(f"corpus: {stages}, wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfpnapo",
        description="Prior-noise-aware preference alignment for rectified-flow models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="fit a velocity field on the configured mixture")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("gen-pairs", help="sample labeled preference pairs from a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True, help="reference checkpoint")
    p.add_argument("--n", type=int, required=True, help="number of record pairs")
    p.add_argument("--out", required=True, help="dataset output path")
    p.set_defaults(func=cmd_gen_pairs)

    p = sub.add_parser("align", help="preference-align a checkpoint on a pair dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True, help="reference checkpoint")
    p.add_argument("--pairs", required=True, help="preference dataset path")
    p.add_argument("--out", required=True, help="aligned checkpoint output path")
    p.add_argument("--method", choices=("pnapo", "dpo", "sft"), default="pnapo")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("eval", help="compare two checkpoints on the analytic reward")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--against", required=True, help="baseline checkpoint")
    p.add_argument("--n", type=int, default=50, help="samples per condition")
    p.add_argument("--out", required=True, help="report CSV output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("--suite", choices=tuple(SUITES), required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corpus", help="filter, dedup, cluster, and resample a prompt corpus")
    p.add_argument("input", help="input corpus TSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="filtered corpus output path")
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"rfpnapo: {exc}", file=sys.stderr)
        return 2
    except MissingInputError as exc:
        print(f"rfpnapo: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"rfpnapo: {exc}", file=sys.stderr)
        return 5
    except ShapeError as exc:  # DataError included
        print(f"rfpnapo: {exc}", file=sys.stderr)
        return 4
    except RfpnapoError as exc:
        print(f"rfpnapo: {exc}", file=sys.stderr)
        return 1
