"""Workload definitions for the rfpnapo benchmark: configs, planted corpora, stages, checks.

Both workloads run the same CLI sequence in-process through ``rfpnapo.cli.main``:
pretrain -> gen-pairs -> align (pnapo) -> eval, then the dpo and sft arms on
the same pairs, then ``corpus`` on a planted corpus. They differ in model and
corpus: ``toy`` is the committed 2-D fixture (per-call overhead dominates),
``wide`` is a 16-D, 77k-parameter model with a larger corpus (FLOPs and bytes
dominate). Each comes at three sizes: a measured round, the whole pipeline
for the traced run, and a tiny one for the self-test.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONFIGS = Path(__file__).resolve().parent / "configs"

# Artifacts compared by sha256 across repetitions. Manifests are left out on
# purpose: they carry wall times by design.
ARTIFACTS = (
    "ref.ckpt", "ref.ckpt.metrics.csv", "pairs.txt", "pnapo.ckpt", "pnapo.ckpt.metrics.csv",
    "eval.csv", "dpo.ckpt", "dpo.ckpt.metrics.csv", "sft.ckpt", "sft.ckpt.metrics.csv",
    "corpus_out.tsv",
)


@dataclass(frozen=True)
class CorpusPlan:
    """Sizes of a planted corpus (acceptance 09's geometry at another scale)."""

    clusters: int
    per_cluster: int
    text_dups: int
    near_dups: int
    toxic: int

    @property
    def dim(self) -> int:
        # one private axis per cluster, one noise axis per within-cluster slot,
        # one fresh axis per near-duplicate
        return self.clusters + self.per_cluster + self.near_dups

    @property
    def cores(self) -> int:
        return self.clusters * self.per_cluster

    @property
    def records(self) -> int:
        return self.cores + self.text_dups + self.near_dups + self.toxic


@dataclass(frozen=True)
class Workload:
    name: str  # also names the config templates in configs/
    conditions: int
    pretrain_steps: int
    pairs: int
    align_steps: int
    arm_steps: int  # dpo and sft arms
    eval_n: int  # samples per condition
    corpus: CorpusPlan


TOY_CORPUS = CorpusPlan(10, 76, 50, 40, 150)  # acceptance 09's plant: 1000 records, d=126
WIDE_CORPUS = CorpusPlan(12, 128, 160, 100, 200)  # 1996 records, d=240

# One measured round calls every stage once at these sizes, each call about
# a second on a 2-core machine. A run repeats rounds, so the calls of every
# stage are spread over the whole run rather than over one long call.
ROUND = {
    "toy": Workload("toy", 4, 1000, 300, 150, 100, 25, TOY_CORPUS),
    "wide": Workload("wide", 8, 250, 150, 25, 25, 10, WIDE_CORPUS),
}

# The whole pipeline, which a traced run runs once untraced and once traced.
# toy is the committed fixture end to end: acceptance 07 reports win rate
# 0.900 at seed 11.
PIPELINE = {
    "toy": Workload("toy", 4, 3000, 5000, 2000, 250, 50, TOY_CORPUS),
    "wide": Workload("wide", 8, 500, 300, 100, 50, 10, WIDE_CORPUS),
}

# Small sizes for the benchmark's self-test only.
TINY = {
    name: Workload(name, wl.conditions, 30, 12, 6, 4, 2,
                   CorpusPlan(3, 8, 3, 2, 4))
    for name, wl in ROUND.items()
}


def _with(template: str, seed: int, steps: int) -> str:
    """The template with its seed and train.steps lines rewritten, as acceptance 07 does."""
    lines = []
    for line in template.splitlines():
        if line.startswith("seed ="):
            line = f"seed = {seed}"
        elif line.startswith("train.steps ="):
            line = f"train.steps = {steps}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def write_configs(wl: Workload, seed: int, root: Path) -> dict[str, Path]:
    """Write the stage configs from the workload's templates."""
    pretrain = (CONFIGS / f"{wl.name}_pretrain.cfg").read_text()
    align = (CONFIGS / f"{wl.name}_align.cfg").read_text()
    texts = {
        "pretrain.cfg": _with(pretrain, seed, wl.pretrain_steps),
        "align.cfg": _with(align, seed, wl.align_steps),
        "arms.cfg": _with(align, seed, wl.arm_steps),
        "corpus.cfg": (
            f"seed = {seed}\n"
            "corpus.toxicity_threshold = 0.1\n"
            "corpus.jaccard_threshold = 0.8\n"
            "corpus.cosine_threshold = 0.8\n"
            f"corpus.k_clusters = {wl.corpus.clusters}\n"
            # a quota no cluster can exceed: k-means++ does not recover the
            # planted clusters for every seed, so only this keeps the output
            # count a property of the plant
            f"corpus.per_cluster = {wl.corpus.cores}\n"
            "corpus.kmeans_iters = 50\n"
        ),
    }
    paths = {}
    for name, text in texts.items():
        path = root / name
        path.write_text(text)
        paths[name] = path
    return paths


def make_corpus(plan: CorpusPlan, seed: int) -> tuple[list[tuple[str, str, float, np.ndarray]], dict]:
    """Seeded planted corpus and its ground truth.

    Cores sit at 4 on their cluster's private axis plus sqrt(4.5) on a noise
    axis shared by slot, so within-cluster cosines are 16/20.5 < 0.8 and
    across-cluster ones at most 4.5/20.5. Exact text duplicates copy a core.
    Near-duplicates mix a core with a fresh axis at cosine exactly 0.9. Toxic
    rows score above the threshold. A seeded random rotation makes every
    embedding dense without changing any cosine. Cores come first, so the
    keep-first dedup passes keep every core and drop every duplicate.
    """
    rng = np.random.default_rng(seed)
    k_n, p_n = plan.clusters, plan.per_cluster
    dim = plan.dim
    centre_norm, noise_norm = 4.0, math.sqrt(4.5)
    rotation, _ = np.linalg.qr(rng.standard_normal((dim, dim)))

    cores = []
    for k in range(k_n):
        for i in range(p_n):
            e = np.zeros(dim)
            e[k] = centre_norm
            e[k_n + i] = noise_norm
            cores.append((f"c{k}_{i}", f"core prompt cluster {k} item {i} token{k}x{i}", e))
    sources = rng.choice(len(cores), size=plan.text_dups + plan.near_dups, replace=False)
    tail = []
    for j, src in enumerate(sources[: plan.text_dups]):
        rid, text, e = cores[int(src)]
        tail.append((f"jdup{j}", text, float(rng.uniform(0.0, 0.09)), e))
    for j, src in enumerate(sources[plan.text_dups:]):
        e = cores[int(src)][2]
        w = np.zeros(dim)
        w[k_n + p_n + j] = 1.0
        q = np.linalg.norm(e) * (0.9 * e / np.linalg.norm(e) + math.sqrt(1.0 - 0.81) * w)
        tail.append((f"ndup{j}", f"near duplicate embedding {j} fresh words", float(rng.uniform(0.0, 0.09)), q))
    for j in range(plan.toxic):
        tail.append((f"tox{j}", f"filtered prompt {j} removed early", float(rng.uniform(0.2, 1.0)),
                     rng.standard_normal(dim)))

    core_rows = [(rid, text, float(rng.uniform(0.0, 0.09)), e) for rid, text, e in cores]
    core_rows = [core_rows[int(i)] for i in rng.permutation(len(core_rows))]
    tail = [tail[int(i)] for i in rng.permutation(len(tail))]
    rows = [(rid, text, tox, rotation @ e) for rid, text, tox, e in core_rows + tail]

    expected = {
        "counts": {
            "input": plan.records,
            "after_toxicity": plan.records - plan.toxic,
            "after_jaccard": plan.cores + plan.near_dups,
            "after_cosine": plan.cores,
            "clusters": k_n,
            "output": plan.cores,
        },
        "kept_ids": sorted(rid for rid, _, _ in cores),
    }
    return rows, expected


def write_corpus_tsv(path: Path, rows, dim: int) -> None:
    lines = ["id\ttext\ttox\t" + "\t".join(f"e{i}" for i in range(dim))]
    for rid, text, tox, emb in rows:
        lines.append("\t".join([rid, text, f"{tox:.17g}", *(f"{v:.17g}" for v in emb)]))
    path.write_text("\n".join(lines) + "\n")


def set_up(wl: Workload, seed: int, root: Path) -> dict:
    """Write the workload's configs and planted corpus into root; returns the plan."""
    root.mkdir(parents=True, exist_ok=True)
    configs = write_configs(wl, seed, root)
    rows, expected = make_corpus(wl.corpus, seed)
    corpus = root / "corpus.tsv"
    write_corpus_tsv(corpus, rows, wl.corpus.dim)
    return {"configs": configs, "corpus": corpus, "expected": expected}


# --- stages -------------------------------------------------------------------


def stage_argv(wl: Workload, setup: dict, out: Path) -> list[tuple[str, list[str], int]]:
    """(stage name, CLI argv, work units) in run order; pipeline stages come first."""
    cfg = {k: str(v) for k, v in setup["configs"].items()}
    ref, pairs = str(out / "ref.ckpt"), str(out / "pairs.txt")
    return [
        ("pretrain", ["pretrain", "--config", cfg["pretrain.cfg"], "--out", ref], wl.pretrain_steps),
        ("gen_pairs", ["gen-pairs", "--config", cfg["pretrain.cfg"], "--model", ref,
                       "--n", str(wl.pairs), "--out", pairs], wl.pairs),
        ("align", ["align", "--config", cfg["align.cfg"], "--model", ref, "--pairs", pairs,
                   "--out", str(out / "pnapo.ckpt"), "--method", "pnapo"], wl.align_steps),
        # eval decodes n per condition for each model, then 2 per win-rate trial
        ("eval", ["eval", "--config", cfg["align.cfg"], "--model", str(out / "pnapo.ckpt"),
                  "--against", ref, "--n", str(wl.eval_n), "--out", str(out / "eval.csv")],
         4 * wl.eval_n * wl.conditions),
        ("align_dpo", ["align", "--config", cfg["arms.cfg"], "--model", ref, "--pairs", pairs,
                       "--out", str(out / "dpo.ckpt"), "--method", "dpo"], wl.arm_steps),
        ("align_sft", ["align", "--config", cfg["arms.cfg"], "--model", ref, "--pairs", pairs,
                       "--out", str(out / "sft.ckpt"), "--method", "sft"], wl.arm_steps),
        ("corpus", ["corpus", str(setup["corpus"]), "--config", cfg["corpus.cfg"],
                    "--out", str(out / "corpus_out.tsv")], wl.corpus.records),
    ]


PIPELINE_STAGES = ("pretrain", "gen_pairs", "align", "eval")


def run_round(cli_main, wl: Workload, setup: dict, out: Path, log) -> dict:
    """Call every stage once into out, in order; stop at the first failure.

    Returns per-stage wall seconds, exit codes (-1 for an exception) and work
    units per call, and the peak RSS after the round.
    """
    out.mkdir(parents=True, exist_ok=True)
    result = {"complete": False, "times": {}, "codes": {}, "units": {}}
    for name, argv, n in stage_argv(wl, setup, out):
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
        except Exception:  # reported as a failed stage, like a non-zero exit
            log(traceback.format_exc())
            code = -1
        result["times"][name] = time.perf_counter() - t0
        result["codes"][name] = code
        result["units"][name] = n
        log(f"{wl.name} {name}: {result['times'][name]:.3f} s, exit {code}")
        if code != 0:
            return result
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["complete"] = True
    return result


# --- correctness checks ---------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def replay_check(pairs: Path, ref: Path) -> tuple[bool, str]:
    """Replay every stored noise through the reference; the deviation must be exactly 0.0."""
    from rfpnapo.errors import RfpnapoError
    from rfpnapo.numerics import read_checkpoint
    from rfpnapo.prefdata import audit_dataset, read_dataset

    try:
        params, spec = read_checkpoint(str(ref))
        worst = audit_dataset(read_dataset(str(pairs)), params, spec)
    except RfpnapoError as exc:
        return False, f"replay audit raised {exc}"
    return worst == 0.0, f"max replay deviation {worst!r}"


def finite_check(ckpt: Path) -> tuple[bool, str]:
    from rfpnapo.numerics import read_checkpoint

    params, _ = read_checkpoint(str(ckpt))
    return bool(np.all(np.isfinite(params))), f"{ckpt.name}: {params.size} parameters"


def corpus_check(out: Path, expected: dict) -> tuple[bool, str]:
    """Stage counts and surviving ids must equal the planted ground truth."""
    counts = json.loads((out / "corpus_out.tsv.manifest.json").read_text())["stage_counts"]
    kept = sorted(line.split("\t", 1)[0] for line in (out / "corpus_out.tsv").read_text().splitlines()[1:])
    ok = counts == expected["counts"] and kept == expected["kept_ids"]
    return ok, f"counts {counts}"


def read_win_rate(out: Path) -> float:
    for line in (out / "eval.csv").read_text().splitlines()[1:]:
        cells = line.split(",")
        if cells[0] == "model":
            return float(cells[3])
    raise ValueError("eval report has no model row")


class HashLedger:
    """Artifact digests seen for one (workload, seed, code) key, across rounds and runs.

    The first digest seen for an artifact becomes the reference; any later
    repetition with the same key must reproduce it byte for byte. The key
    covers the package and benchmark sources, so a code change starts afresh.
    """

    def __init__(self, path: Path):
        self.path = path
        self.known: dict[str, str] = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, artifact: str, digest: str) -> bool:
        ref = self.known.setdefault(artifact, digest)
        return ref == digest

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def code_digest(*dirs: Path) -> str:
    """Digest of every source file under dirs, caches excluded."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(p for p in d.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
            h.update(path.relative_to(d).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]
