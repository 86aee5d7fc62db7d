"""Command-line front end: pretrain | gen-pairs | align | eval | verify | corpus.

Each artifact command reads, runs, then writes its outputs and a
`<out>.manifest.json` with the config snapshot and the sha256 of every file
argument (FILE_ARGS) and output; training commands also write
`<out>.metrics.csv`, headed by the keys of the trainer's rows. The callees
check what they read; a failure exits with its error class's code (see
errors.py); success is 0.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .analytics import eval_reward, win_rate
from .config import RunConfig, load_config
from .corpus import read_corpus, run_pipeline, write_corpus
from .errors import RfpnapoError
from .fileio import fmt17, sha256_file, write_text
from .numerics import read_checkpoint, write_checkpoint
from .prefdata import build_dataset, read_dataset, write_dataset
from .training import METHODS, run_alignment, run_pretrain
from .verify import SUITES

# the parsed arguments that name input files; each one a command has is a manifest input
FILE_ARGS = ("config", "input", "model", "pairs", "against")


def _write_csv(path: str, rows: list[dict]) -> None:
    """The first row's keys as header, then one line per row: int and str cells as str, floats by fmt17."""
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(",".join(
            str(cell) if isinstance(cell, (int, str)) else fmt17(cell) for cell in row.values()
        ))
    write_text(path, lines)


def _command(args: argparse.Namespace) -> list[str]:
    """The subcommand, then every argument in parser order, defaults included."""
    command = [args.command]
    for dest, value in vars(args).items():
        if dest == "input":  # the only positional
            command.append(value)
        elif dest not in ("command", "func"):
            command += [f"--{dest}", str(value)]
    return command


def _write_manifest(
    args: argparse.Namespace,
    cfg: RunConfig,
    start: float,
    outputs: list[str],
    hashed: dict[str, str] | None = None,
    **extras,
) -> None:
    """Write <out>.manifest.json, timed from start; hashed holds input hashes the command already took."""
    wall_time_s = time.monotonic() - start
    inputs = dict(hashed or {})
    for dest in FILE_ARGS:
        path = getattr(args, dest, None)
        if path is not None and path not in inputs:
            inputs[path] = sha256_file(path)
    doc = {
        "artifact_version": 1,
        "command": _command(args),
        "config": cfg.snapshot(),
        "inputs": inputs,
        "outputs": {p: sha256_file(p) for p in outputs},
        "wall_time_s": wall_time_s,
        **extras,
    }
    write_text(args.out + ".manifest.json", [json.dumps(doc, indent=2, sort_keys=True)])


def cmd_pretrain(args: argparse.Namespace) -> int:
    start = time.monotonic()
    cfg = load_config(args.config)
    spec = cfg.mlp_spec()
    params, rows = run_pretrain(
        spec, cfg.mixture(),
        steps=cfg.get("train.steps"), batch=cfg.get("train.batch"),
        lr=cfg.get("train.lr"), seed=cfg.get("seed"),
    )
    write_checkpoint(args.out, params, spec)
    metrics_path = args.out + ".metrics.csv"
    _write_csv(metrics_path, rows)
    _write_manifest(args, cfg, start, [args.out, metrics_path])
    print(f"pretrain: {len(rows)} steps, final loss {fmt17(rows[-1]['loss'])}, wrote {args.out}")
    return 0


def cmd_gen_pairs(args: argparse.Namespace) -> int:
    start = time.monotonic()
    cfg = load_config(args.config)
    ref_params, spec = read_checkpoint(args.model)
    centers = cfg.reward(spec.data_dim, spec.cond_dim)
    ref_hash = sha256_file(args.model)
    dataset = build_dataset(
        ref_params, spec, centers,
        steps=cfg.get("sampler.steps"), n_records=args.n, base_seed=cfg.get("seed"), ref_hash=ref_hash,
    )
    write_dataset(args.out, dataset)
    _write_manifest(args, cfg, start, [args.out], {args.model: ref_hash}, ref_hash=ref_hash)
    print(f"gen-pairs: {len(dataset)} records from {args.model}, wrote {args.out}")
    return 0


def cmd_align(args: argparse.Namespace) -> int:
    start = time.monotonic()
    cfg = load_config(args.config)
    ref_params, spec = read_checkpoint(args.model)
    dataset = read_dataset(args.pairs)  # dims that differ from spec's fail in path_inputs
    schedule = cfg.schedule()  # n1 < n2 fails here, before the run
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
    params, rows = run_alignment(
        ref_params, spec, dataset, args.method, schedule,
        steps=cfg.get("train.steps"), batch=cfg.get("train.batch"),
        lr=cfg.get("train.lr"), seed=cfg.get("seed"),
    )
    write_checkpoint(args.out, params, spec)
    metrics_path = args.out + ".metrics.csv"
    _write_csv(metrics_path, rows)
    _write_manifest(
        args, cfg, start, [args.out, metrics_path], {args.model: ref_hash},
        method=args.method,
        ref_hash=ref_hash,
        pairs_ref_hash=pairs_ref_hash,
        ref_hash_match=pairs_ref_hash == ref_hash,
    )
    print(
        f"align[{args.method}]: {len(rows)} steps on {len(dataset)} records, "
        f"final loss {fmt17(rows[-1]['loss'])}, wrote {args.out}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    start = time.monotonic()
    cfg = load_config(args.config)
    params_a, spec_a = read_checkpoint(args.model)
    params_b, spec_b = read_checkpoint(args.against)
    # the reward is built for model's dims; against's samples of other dims fail in reward_eval
    centers = cfg.reward(spec_a.data_dim, spec_a.cond_dim)
    steps = cfg.get("sampler.steps")
    seed = cfg.get("seed")
    rewards_a = eval_reward(params_a, spec_a, centers, args.n, steps, seed)
    rewards_b = eval_reward(params_b, spec_b, centers, args.n, steps, seed)
    wr = win_rate(rewards_a, rewards_b)
    rows = [
        {
            "model": label,
            "mean_reward": float(np.mean(rewards)),
            "median_reward": float(np.median(rewards)),
            "win_rate": win,
            "n": len(rewards),
            "seed": seed,
        }
        for label, rewards, win in (("model", rewards_a, wr), ("against", rewards_b, 1.0 - wr))
    ]
    _write_csv(args.out, rows)
    _write_manifest(args, cfg, start, [args.out])
    for row in rows:
        print(
            f"eval[{row['model']}]: mean reward {fmt17(row['mean_reward'])}, "
            f"median {fmt17(row['median_reward'])}, win rate {fmt17(row['win_rate'])}"
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
    corpus = read_corpus(args.input)
    survivors, counts = run_pipeline(
        corpus,
        toxicity_threshold=cfg.get("corpus.toxicity_threshold"),
        jaccard_threshold=cfg.get("corpus.jaccard_threshold"),
        cosine_threshold=cfg.get("corpus.cosine_threshold"),
        n_clusters=cfg.get("corpus.k_clusters"),
        per_cluster=cfg.get("corpus.per_cluster"),
        kmeans_iters=cfg.get("corpus.kmeans_iters"),
        seed=cfg.get("seed"),
    )
    write_corpus(args.out, survivors)
    _write_manifest(args, cfg, start, [args.out], stage_counts=counts)
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
    p.add_argument("--method", choices=METHODS, default="pnapo")
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
    except RfpnapoError as exc:
        print(f"rfpnapo: {exc}", file=sys.stderr)
        return exc.exit_code
