"""End-to-end acceptance checks, one per contract item, each printing a
single PASS/FAIL line so the run reads as a checklist.

The heavyweight pipeline (five seeded pretrain -> pair -> align -> eval runs
plus a constant-temperature arm for the ablation comparison) executes once in
a module-scoped fixture and is shared by the criteria that consume it.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURES, make_pairs
from rfpnapo.baselines import dpo_value_grad
from rfpnapo.analytics import estimator_variance
from rfpnapo.numerics import MlpSpec, mlp_init, read_checkpoint
from rfpnapo.pnapo import pnapo_value_grad, score_gap
from rfpnapo.prefdata import audit_dataset, read_dataset

SEEDS = (11, 22, 33, 44, 55)


def _emit(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "rfpnapo", *args], capture_output=True, text=True)


def _with_seed(template: str, seed: int) -> str:
    lines = []
    for line in template.splitlines():
        if line.startswith("seed ="):
            lines.append(f"seed = {seed}")
        else:
            lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory):
    """The committed five-seed experiment, dynamic and constant-beta arms."""
    root = tmp_path_factory.mktemp("toy")
    pre_tpl = (FIXTURES / "toy_pretrain.cfg").read_text()
    dyn_tpl = (FIXTURES / "toy_align.cfg").read_text()
    fix_tpl = (FIXTURES / "toy_align_fixed.cfg").read_text()
    runs = {}
    for seed in SEEDS:
        d = root / f"s{seed}"
        d.mkdir()
        pre_cfg = d / "pretrain.cfg"
        dyn_cfg = d / "align.cfg"
        fix_cfg = d / "align_fixed.cfg"
        pre_cfg.write_text(_with_seed(pre_tpl, seed))
        dyn_cfg.write_text(_with_seed(dyn_tpl, seed))
        fix_cfg.write_text(_with_seed(fix_tpl, seed))
        ref = d / "ref.ckpt"
        pairs = d / "pairs.txt"
        dyn = d / "aligned.ckpt"
        fix = d / "aligned_fixed.ckpt"
        ev_dyn = d / "eval_dynamic.csv"
        ev_fix = d / "eval_fixed.csv"

        stage_times = {}
        t0 = time.monotonic()
        r = _cli("pretrain", "--config", str(pre_cfg), "--out", str(ref))
        stage_times["pretrain"] = time.monotonic() - t0
        assert r.returncode == 0, r.stderr

        t0 = time.monotonic()
        r = _cli("gen-pairs", "--config", str(pre_cfg), "--model", str(ref),
                 "--n", "5000", "--out", str(pairs))
        stage_times["gen_pairs"] = time.monotonic() - t0
        assert r.returncode == 0, r.stderr

        t0 = time.monotonic()
        r = _cli("align", "--config", str(dyn_cfg), "--model", str(ref),
                 "--pairs", str(pairs), "--out", str(dyn), "--method", "pnapo")
        stage_times["align"] = time.monotonic() - t0
        assert r.returncode == 0, r.stderr

        t0 = time.monotonic()
        r = _cli("eval", "--config", str(dyn_cfg), "--model", str(dyn),
                 "--against", str(ref), "--n", "50", "--out", str(ev_dyn))
        stage_times["eval"] = time.monotonic() - t0
        assert r.returncode == 0, r.stderr

        # constant-temperature arm (ablation comparison only, not in the
        # 10-minute experiment budget)
        fixed_rc = _cli("align", "--config", str(fix_cfg), "--model", str(ref),
                        "--pairs", str(pairs), "--out", str(fix), "--method", "pnapo").returncode
        fixed_eval_rc = _cli("eval", "--config", str(fix_cfg), "--model", str(fix),
                             "--against", str(ref), "--n", "50", "--out", str(ev_fix)).returncode

        runs[seed] = {
            "dir": d,
            "ref": ref,
            "pairs": pairs,
            "aligned": dyn,
            "aligned_fixed": fix,
            "eval_dynamic": ev_dyn,
            "eval_fixed": ev_fix,
            "stage_times": stage_times,
            "fixed_rc": fixed_rc,
            "fixed_eval_rc": fixed_eval_rc,
        }
    return runs


def _read_eval(path: Path) -> dict[str, dict]:
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        cells = line.split(",")
        rows[cells[0]] = {
            "mean": float(cells[1]),
            "median": float(cells[2]),
            "win": float(cells[3]) if cells[3] else None,
        }
    return rows


def test_c01_reference_point_identity(capsys):
    spec = MlpSpec(data_dim=3, cond_dim=4, hidden=(10, 8))
    params = mlp_init(spec, 500)
    rng = np.random.default_rng(501)
    pairs = make_pairs(rng, spec, 100, delta_r=rng.random(100) * 2)
    t = rng.random((100, 1))
    beta = rng.random(100) * 80 + 0.01
    a, _, _ = pnapo_value_grad(params, params, spec, pairs, t, beta)
    eps = rng.standard_normal((100, 2, 3))
    b, _, _ = dpo_value_grad(params, params, spec, pairs, eps, t, beta=40.0)
    worst = float(np.max(np.abs(np.concatenate([a, b]) - math.log(2.0))))
    ok = worst <= 1e-9
    _emit(capsys, 1, "reference-point losses equal log 2", ok, f"max |loss - log2| = {worst:.3g}")
    assert ok


def test_c02_gradient_check_suite(capsys):
    t0 = time.monotonic()
    r = _cli("verify", "--suite", "gradcheck")
    elapsed = time.monotonic() - t0
    lines = [l for l in r.stdout.splitlines() if l.startswith("gradcheck_")]
    ok = r.returncode == 0 and len(lines) == 4 and all(",PASS," in l for l in lines)
    ok = ok and elapsed < 60.0
    worst = max(float(l.split(",")[2]) for l in lines) if lines else float("nan")
    _emit(capsys, 2, "analytic gradients match finite differences", ok,
          f"4 losses, max rel err = {worst:.3g}, {elapsed:.1f}s")
    assert ok, r.stdout + r.stderr


def test_c03_schedule_properties(capsys):
    r = _cli("verify", "--suite", "schedule")
    lines = [l for l in r.stdout.splitlines() if l.startswith("schedule_")]
    passed = sum(",PASS," in l for l in lines)
    ok = r.returncode == 0 and len(lines) == 10 and passed == 10
    _emit(capsys, 3, "temperature controllers hit pinned values", ok, f"{passed}/10 properties")
    assert ok, r.stdout + r.stderr


def test_c04_kl_bound_suite(capsys):
    t0 = time.monotonic()
    r = _cli("verify", "--suite", "kl")
    elapsed = time.monotonic() - t0
    lines = [l for l in r.stdout.splitlines() if l.startswith(("kl_gap_", "chain_rule_"))]
    ok = (
        r.returncode == 0
        and len(lines) == 200
        and all(",PASS," in l for l in lines)
        and elapsed < 30.0
    )
    _emit(capsys, 4, "conditioning bound holds on 100 enumerated chains", ok,
          f"{sum(',PASS,' in l for l in lines)}/200 checks, {elapsed:.1f}s")
    assert ok, r.stdout + r.stderr


def test_c05_estimator_pinning(capsys, toy_runs):
    run = toy_runs[SEEDS[0]]
    ref, spec = read_checkpoint(str(run["ref"]))
    aligned, _ = read_checkpoint(str(run["aligned"]))
    pair = read_dataset(str(run["pairs"])).take([0])

    base = score_gap(aligned, ref, spec, pair, t=0.37)[0]
    pinned_worst = max(
        abs(score_gap(aligned, ref, spec, pair, t=0.37)[0] - base) for _ in range(200)
    )
    var_stored, var_fresh = estimator_variance(aligned, ref, spec, pair, n_draws=1000, seed=123)
    ok = pinned_worst == 0.0 and var_fresh > 0.0
    ratio = var_stored / var_fresh if var_fresh > 0 else float("inf")
    _emit(capsys, 5, "stored noise pins the score gap", ok,
          f"pinned spread = {pinned_worst}, var_stored = {var_stored:.3g}, "
          f"var_fresh = {var_fresh:.3g}, ratio = {ratio:.3g}")
    assert ok


def test_c06_dataset_self_consistency(capsys, toy_runs):
    run = toy_runs[SEEDS[0]]
    ref, spec = read_checkpoint(str(run["ref"]))
    ds = read_dataset(str(run["pairs"]))
    worst = audit_dataset(ds, ref, spec)
    gaps_ok = bool(np.all(ds.delta_r >= 0.0))
    ok = worst == 0.0 and gaps_ok and len(ds) == 5000
    _emit(capsys, 6, "stored noises replay to stored samples exactly", ok,
          f"{len(ds)} records, max replay deviation = {worst}, all gaps >= 0: {gaps_ok}")
    assert ok


def test_c07_toy_alignment_beats_reference(capsys, toy_runs):
    wins = 0
    details = []
    total_time = 0.0
    gen_pairs_ok = True
    for seed in SEEDS:
        run = toy_runs[seed]
        rows = _read_eval(run["eval_dynamic"])
        model, against = rows["model"], rows["against"]
        improved = model["mean"] > against["mean"]
        win = model["win"]
        seed_ok = improved and win is not None and win > 0.55
        wins += seed_ok
        total_time += sum(run["stage_times"].values())
        gen_pairs_ok = gen_pairs_ok and run["stage_times"]["gen_pairs"] < 60.0
        details.append(f"s{seed}: win={win:.3f} d_mean={model['mean'] - against['mean']:+.4f}")
    ok = wins >= 4 and total_time < 600.0 and gen_pairs_ok
    _emit(capsys, 7, "aligned model beats its reference on the toy task", ok,
          f"{wins}/5 seeds, {total_time:.0f}s total; " + "; ".join(details))
    assert ok


def test_c08_ablation_harness_completes(capsys, toy_runs):
    # hard requirement: both arms finish and emit the same metrics schema
    schema_ok = True
    completed = True
    direction = 0
    for seed in SEEDS:
        run = toy_runs[seed]
        completed = completed and run["fixed_rc"] == 0 and run["fixed_eval_rc"] == 0
        dyn_csv = Path(str(run["aligned"]) + ".metrics.csv").read_text().splitlines()
        fix_csv = Path(str(run["aligned_fixed"]) + ".metrics.csv").read_text().splitlines()
        schema_ok = schema_ok and dyn_csv[0] == fix_csv[0] == "step,loss,margin_mean,beta_eff_mean,grad_norm"
        schema_ok = schema_ok and len(dyn_csv) == len(fix_csv) == 2001
        dyn_mean = _read_eval(run["eval_dynamic"])["model"]["mean"]
        fix_mean = _read_eval(run["eval_fixed"])["model"]["mean"]
        direction += dyn_mean >= fix_mean
    ok = completed and schema_ok
    # the >= 3/5 direction count mirrors a reported trend; logged, not gated
    _emit(capsys, 8, "dynamic and constant temperature arms comparable", ok,
          f"completed 5/5, schema shared, dynamic >= constant mean reward in {direction}/5 seeds")
    assert ok


def _build_corpus_fixture(tmp_path: Path) -> tuple[Path, Path]:
    """1000 records: 760 clusterable cores + 150 toxic + 50 exact text
    duplicates + 40 planted near-duplicate embeddings.

    Geometry is exact by construction: cluster centers sit on 10 private
    axes, every core gets its own orthogonal noise axis, every near-duplicate
    mixes its source with a fresh private axis. All unplanted cosines are
    {0, 1/3, <=0.667*0.9}; planted near-duplicates score exactly 0.9.
    """
    n_clusters, per_cluster = 10, 76
    noise_axes, near_axes = per_cluster, 40
    dim = n_clusters + noise_axes + near_axes
    center_norm, noise_norm = 4.0, math.sqrt(4.5)

    cores = []  # (id, text, tox, embedding, cluster)
    for k in range(n_clusters):
        for i in range(per_cluster):
            e = np.zeros(dim)
            e[k] = center_norm
            e[n_clusters + i] = noise_norm
            cores.append((f"c{k}_{i}", f"core prompt cluster {k} item {i} token{k}x{i}", 0.02, e, k))
    # within a cluster: cos = 16/20.5; across clusters sharing a noise axis: 4.5/20.5

    records = [(rid, text, tox, emb) for rid, text, tox, emb, _ in cores]
    dup_texts = [cores[j][1] for j in range(50)]
    for j in range(50):
        records.append((f"jdup{j}", dup_texts[j], 0.03, cores[j][3].copy()))
    for j in range(40):
        src = cores[50 + j]
        u = src[3] / np.linalg.norm(src[3])
        w = np.zeros(dim)
        w[n_clusters + noise_axes + j] = 1.0
        q = np.linalg.norm(src[3]) * (0.9 * u + math.sqrt(1.0 - 0.81) * w)
        records.append((f"ndup{j}", f"near duplicate embedding {j} fresh words", 0.01, q))
    for j in range(150):
        records.append((f"tox{j}", f"filtered prompt {j} removed early", 0.5, np.ones(dim)))

    assert len(records) == 1000
    # confirm the planted margins before writing anything
    core_mat = np.stack([c[3] for c in cores])
    unit = core_mat / np.linalg.norm(core_mat, axis=1, keepdims=True)
    gram = unit @ unit.T
    np.fill_diagonal(gram, 0.0)
    assert gram.max() <= 16.0 / 20.5 + 1e-12

    lines = ["id\ttext\ttox\t" + "\t".join(f"e{i}" for i in range(dim))]
    for rid, text, tox, emb in records:
        cells = [rid, text, f"{tox:.17g}", *(f"{v:.17g}" for v in emb)]
        lines.append("\t".join(cells))
    tsv = tmp_path / "corpus_fixture.tsv"
    tsv.write_text("\n".join(lines) + "\n")

    # seed committed after verifying the clustering recovers the plant exactly
    cfg = tmp_path / "corpus.cfg"
    cfg.write_text(
        "seed = 1002\n"
        "corpus.toxicity_threshold = 0.1\n"
        "corpus.jaccard_threshold = 0.8\n"
        "corpus.cosine_threshold = 0.8\n"
        "corpus.k_clusters = 10\n"
        "corpus.per_cluster = 50\n"
        "corpus.kmeans_iters = 50\n"
    )
    return tsv, cfg


def test_c09_corpus_pipeline_counts(capsys, tmp_path):
    tsv, cfg = _build_corpus_fixture(tmp_path)
    out = tmp_path / "filtered.tsv"
    r = _cli("corpus", str(tsv), "--config", str(cfg), "--out", str(out))
    assert r.returncode == 0, r.stderr
    counts = json.loads((tmp_path / "filtered.tsv.manifest.json").read_text())["stage_counts"]
    expected = {
        "input": 1000,
        "after_toxicity": 850,
        "after_jaccard": 800,
        "after_cosine": 760,
        "clusters": 10,
        "output": 500,
    }
    counts_ok = counts == expected

    # the resampler must have taken exactly min(50, 76) = 50 per planted cluster
    kept_ids = [line.split("\t")[0] for line in out.read_text().splitlines()[1:]]
    per_planted = {}
    for rid in kept_ids:
        k = int(rid.split("_")[0][1:])
        per_planted[k] = per_planted.get(k, 0) + 1
    quota_ok = sorted(per_planted) == list(range(10)) and all(
        v == 50 for v in per_planted.values()
    )
    ok = counts_ok and quota_ok
    _emit(capsys, 9, "corpus stages match planted ground truth", ok,
          f"counts {counts}, per-cluster quota ok: {quota_ok}")
    assert ok, counts


def test_c10_subcommands_byte_identical(capsys, tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "seed = 77\n"
        "data.dim = 2\n"
        "data.conditions = 2\n"
        "model.hidden = 8,8\n"
        "train.lr = 2e-3\n"
        "train.steps = 30\n"
        "train.batch = 8\n"
        "pnapo.beta = 4.0\n"
        "pnapo.n1 = 10\n"
        "pnapo.n2 = 20\n"
        "sampler.steps = 5\n"
        "reward.kind = mode_distance\n"
        "reward.params = 2,0 ; -2,0\n"
    )
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    tsv, corpus_cfg = _build_corpus_fixture(corpus_dir)

    identical = {}

    def both(name, args_fn) -> None:
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / tag / f"{name}.out"
            out.parent.mkdir(exist_ok=True)
            r = _cli(*args_fn(str(out)))
            assert r.returncode == 0, (name, r.stderr)
            outs.append(out)
        identical[name] = outs[0].read_bytes() == outs[1].read_bytes()
        m0 = json.loads(Path(str(outs[0]) + ".manifest.json").read_text())
        m1 = json.loads(Path(str(outs[1]) + ".manifest.json").read_text())
        identical[name] = identical[name] and (
            list(m0["outputs"].values())[0] == list(m1["outputs"].values())[0]
        )

    both("pretrain", lambda o: ("pretrain", "--config", str(cfg), "--out", o))
    ref = str(tmp_path / "x" / "pretrain.out")
    both("gen-pairs", lambda o: ("gen-pairs", "--config", str(cfg), "--model", ref, "--n", "20", "--out", o))
    pairs = str(tmp_path / "x" / "gen-pairs.out")
    both("align", lambda o: ("align", "--config", str(cfg), "--model", ref, "--pairs", pairs, "--out", o))
    aligned = str(tmp_path / "x" / "align.out")
    both("eval", lambda o: ("eval", "--config", str(cfg), "--model", aligned, "--against", ref, "--n", "4", "--out", o))
    both("corpus", lambda o: ("corpus", str(tsv), "--config", str(corpus_cfg), "--out", o))

    # verify writes no artifact; each suite's report must still be byte-stable
    for suite in ("kl", "gradcheck", "variance", "schedule"):
        v1 = _cli("verify", "--suite", suite)
        v2 = _cli("verify", "--suite", suite)
        identical[f"verify-{suite}"] = v1.stdout == v2.stdout and v1.returncode == v2.returncode == 0

    ok = all(identical.values())
    _emit(capsys, 10, "all subcommands rerun byte-identically", ok,
          ", ".join(f"{k}={'ok' if v else 'DIFF'}" for k, v in identical.items()))
    assert ok, identical
