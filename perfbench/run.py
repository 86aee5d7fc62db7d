"""rfpnapo benchmark: one workload per process, in-process through ``rfpnapo.cli.main``.

    python3 perfbench/run.py --workload toy --seed 11 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. A run sets up the workload's inputs, then runs rounds of
pretrain -> gen-pairs -> align (pnapo) -> eval -> align (dpo, sft) -> corpus,
each stage called once per round, until ``--seconds`` of stage time have
passed. It checks every output, and prints one line per metric followed by a
JSON summary as the last line. ``--trace 1`` instead runs the whole pipeline
once untraced and once traced, and reports per-layer metrics. The exit code
is 0 only when every stage and every check passed. See README.md in this
directory.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_ROUNDS = 200
# setup_s is the median of a set-up before every round, and of at least this many
MIN_SETUPS = 5


def round_s(result: dict) -> float:
    return sum(result["times"].values())


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def pin_environment() -> None:
    """One BLAS thread, and the package's own thread knob left at its default."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("RFPNAPO_THREADS", None)


def machine_facts() -> dict:
    import ctypes
    import platform

    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
        for lib in libs:
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(dll, sym):
                    threads = int(getattr(dll, sym)())
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


class Gate:
    """Counts operations; an operation fails when it raises or reports not ok."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, fn) -> None:
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception:  # a broken check is a failed operation, not a crash
            ok, detail = False, traceback.format_exc(limit=3)
        if not ok:
            self.failed += 1
            log(f"FAILED {name}: {detail}")


def fresh_import_and_set_up(wl, seed: int, root: Path):
    """Import the package anew and write the workload's inputs; timed as set-up."""
    import workloads

    for name in [n for n in sys.modules if n == "rfpnapo" or n.startswith("rfpnapo.")]:
        del sys.modules[name]
    cli = importlib.import_module("rfpnapo.cli")
    return cli, workloads.set_up(wl, seed, root)


def check_round(gate: Gate, wl, setup: dict, out: Path, result: dict, ledger, audited: dict) -> None:
    import workloads as w

    for stage, code in result["codes"].items():
        gate.check(f"stage {stage}", lambda code=code: (code == 0, f"exit code {code}"))
    if not result["complete"]:
        gate.check("round complete", lambda: (False, "a stage failed; outputs not checked"))
        return
    for art in w.ARTIFACTS:
        gate.check(f"repeatable {art}", lambda art=art: (
            ledger.check(f"{wl.name}/{art}", w.sha256(out / art)), "sha256 differs from an earlier repetition"))
    # replaying is as costly as generating, so identical pair files are audited once
    key = (w.sha256(out / "pairs.txt"), w.sha256(out / "ref.ckpt"))
    if key not in audited:
        audited[key] = w.replay_check(out / "pairs.txt", out / "ref.ckpt")
    gate.check("replay", lambda: audited[key])
    for arm in ("pnapo", "dpo", "sft"):
        gate.check(f"finite {arm}", lambda arm=arm: w.finite_check(out / f"{arm}.ckpt"))
    gate.check("corpus ground truth", lambda: w.corpus_check(out, setup["expected"]))
    gate.check("win rate", lambda: (0.0 <= w.read_win_rate(out) <= 1.0, "win rate in [0, 1]"))


def end_to_end(rounds: list[dict], setup_times: list[float]) -> dict:
    import workloads as w

    # The mean call, not the median one: this machine switches between a fast
    # and a slow speed for tens of seconds at a time, and a median of calls
    # flips between the two where a mean moves with the share of each.
    def mean_s(stage: str) -> float:
        return statistics.fmean(r["times"][stage] for r in rounds)

    def rate(stage: str) -> float:
        return rounds[0]["units"][stage] / mean_s(stage)

    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pipeline_s": (sum(mean_s(s) for s in w.PIPELINE_STAGES), "s"),
        "pretrain_steps_per_s": (rate("pretrain"), "steps/s"),
        "gen_pairs_records_per_s": (rate("gen_pairs"), "records/s"),
        "align_steps_per_s": (rate("align"), "steps/s"),
        "eval_samples_per_s": (rate("eval"), "samples/s"),
        "align_dpo_steps_per_s": (rate("align_dpo"), "steps/s"),
        "align_sft_steps_per_s": (rate("align_sft"), "steps/s"),
        "corpus_records_per_s": (rate("corpus"), "records/s"),
        "peak_rss_mb": (rounds[0]["peak_rss_mb"], "MiB"),
    }


PER_LAYER = [
    # (metric, kind, span or counter, unit); kinds: calls, busy, self, count, ratio
    ("numerics.forward_single.calls", "calls", "numerics.forward_single", "count"),
    ("numerics.forward_single.busy_s", "busy", "numerics.forward_single", "s"),
    ("numerics.unpack_params.calls", "calls", "numerics.unpack_params", "count"),
    ("numerics.vjp_single.calls", "calls", "numerics.vjp_single", "count"),
    ("numerics.vjp_single.busy_s", "busy", "numerics.vjp_single", "s"),
    ("numerics.forward_batch.calls", "calls", "numerics.forward_batch", "count"),
    ("numerics.forward_batch.rows", "count", "numerics.forward_batch.rows", "count"),
    ("numerics.forward_batch.busy_s", "busy", "numerics.forward_batch", "s"),
    ("numerics.vjp_batch.calls", "calls", "numerics.vjp_batch", "count"),
    ("numerics.vjp_batch.busy_s", "busy", "numerics.vjp_batch", "s"),
    ("numerics.adam_step.calls", "calls", "numerics.adam_step", "count"),
    ("numerics.adam_step.busy_s", "busy", "numerics.adam_step", "s"),
    ("numerics.flops", "count", "numerics.flops", "flop-computed"),
    ("numerics.checkpoint.bytes", "count", "numerics.checkpoint.bytes", "B"),
    ("numerics.checkpoint.busy_s", "busy", "numerics.checkpoint", "s"),
    ("rectflow.euler_sample.calls", "calls", "rectflow.euler_sample", "count"),
    ("rectflow.euler_sample.self_s", "self", "rectflow.euler_sample", "s"),
    ("rectflow.cfm_objective.busy_s", "busy", "rectflow.cfm_objective", "s"),
    ("prefdata.build_dataset.self_s", "self", "prefdata.build_dataset", "s"),
    ("prefdata.reward_eval.calls", "calls", "prefdata.reward_eval", "count"),
    ("prefdata.write_dataset.bytes", "count", "prefdata.write_dataset.bytes", "B"),
    ("prefdata.write_dataset.busy_s", "busy", "prefdata.write_dataset", "s"),
    ("prefdata.read_dataset.bytes", "count", "prefdata.read_dataset.bytes", "B"),
    ("prefdata.read_dataset.busy_s", "busy", "prefdata.read_dataset", "s"),
    ("pnapo.value_grad.calls", "calls", "pnapo.value_grad", "count"),
    ("pnapo.value_grad.self_s", "self", "pnapo.value_grad", "s"),
    ("baselines.dpo_value_grad.calls", "calls", "baselines.dpo_value_grad", "count"),
    ("baselines.dpo_value_grad.busy_s", "busy", "baselines.dpo_value_grad", "s"),
    ("baselines.sft_term.calls", "calls", "baselines.sft_term", "count"),
    ("baselines.sft_term.busy_s", "busy", "baselines.sft_term", "s"),
    ("training.step_with_terms.calls", "calls", "training.step_with_terms", "count"),
    ("training.step_with_terms.self_s", "self", "training.step_with_terms", "s"),
    ("analytics.eval_reward.busy_s", "busy", "analytics.eval_reward", "s"),
    ("analytics.win_rate.busy_s", "busy", "analytics.win_rate", "s"),
    *[(f"corpus.{s}.busy_s", "busy", f"corpus.{s}", "s") for s in (
        "toxicity_filter", "jaccard_dedup", "embedding_dedup", "kmeans_cluster", "cluster_resample")],
    *[(f"corpus.{s}.kept_ratio", "ratio", f"corpus.{s}", "ratio") for s in (
        "toxicity_filter", "jaccard_dedup", "embedding_dedup", "cluster_resample")],
    ("corpus.kmeans.iters", "count", "corpus.kmeans.iters", "count"),
    ("corpus.read.bytes", "count", "corpus.read.bytes", "B"),
    ("corpus.read.busy_s", "busy", "corpus.read", "s"),
    ("corpus.write.bytes", "count", "corpus.write.bytes", "B"),
    ("corpus.write.busy_s", "busy", "corpus.write", "s"),
    ("fileio.sha256.calls", "calls", "fileio.sha256", "count"),
    ("fileio.sha256.bytes", "count", "fileio.sha256.bytes", "B"),
    ("fileio.sha256.busy_s", "busy", "fileio.sha256", "s"),
    ("config.load_config.busy_s", "busy", "config.load_config", "s"),
    *[(f"cli.{c}.self_s", "self", f"cli.{c}", "s") for c in ("pretrain", "gen-pairs", "align", "eval", "corpus")],
]


def per_layer(tracer, overhead_s: float, win_rate: float) -> dict:
    read = {
        "calls": tracer.calls,
        "busy": tracer.busy_s,
        "self": tracer.self_s,
        "count": lambda key: tracer.counts[key],
        "ratio": lambda key: tracer.counts[key + ".kept"] / tracer.counts[key + ".in"],
    }
    out = {name: (read[kind](key), unit) for name, kind, key, unit in PER_LAYER}
    out["analytics.win_rate.value"] = (win_rate, "ratio")
    out["trace.spans"] = (len(tracer.start), "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("toy", "wide"), required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="stage time to measure in rounds; a traced run ignores it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--workdir", default=str(ROOT / ".perfbench-work"))
    args = parser.parse_args(argv)

    pin_environment()
    src = ROOT / "src"
    if not (src / "rfpnapo" / "__init__.py").is_file():
        log(f"perfbench: no package source at {src / 'rfpnapo'}; run from a source checkout")
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads as w

    label = "tiny" if args.tiny else "pipeline" if args.trace else "round"
    wl = {"tiny": w.TINY, "pipeline": w.PIPELINE, "round": w.ROUND}[label][args.workload]
    work = Path(args.workdir) / f"{wl.name}-{args.seed}-{label}"

    setup_times = []

    def timed_set_up():
        t0 = time.perf_counter()
        cli, setup = fresh_import_and_set_up(wl, args.seed, work / "inputs")
        setup_times.append(time.perf_counter() - t0)
        return cli, setup

    cli, setup = timed_set_up()
    facts = machine_facts()
    log(f"machine {json.dumps(facts)}")
    # one untimed pass at self-test sizes runs every code path once, so no
    # stage's time carries numpy's lazy first-call work
    tiny = w.TINY[args.workload]
    w.run_round(cli.main, tiny, w.set_up(tiny, args.seed, work / "warmup"), work / "warmup", log)

    ledger = w.HashLedger(Path(args.workdir) / "ledger" / (
        f"{work.name}-{w.code_digest(src / 'rfpnapo', HERE)}.json"))
    # a traced run measures one untraced round: the reference for its overhead
    max_rounds = 1 if args.trace else MAX_ROUNDS
    gate, audited, rounds = Gate(), {}, []
    while len(rounds) < max_rounds:
        if rounds:
            # a set-up before every round spreads the set-ups over the run
            cli, setup = timed_set_up()
        out = work / "round"
        result = w.run_round(cli.main, wl, setup, out, log)
        check_round(gate, wl, setup, out, result, ledger, audited)
        if not result["complete"]:
            break
        rounds.append(result)
        if sum(round_s(r) for r in rounds) >= args.seconds:
            break

    metrics = {}
    if rounds and args.trace:
        import tracing

        tracer = tracing.Tracer()
        out = work / "traced"
        with tracing.instrument(tracer):
            result = w.run_round(cli.main, wl, setup, out, log)
        check_round(gate, wl, setup, out, result, ledger, audited)
        tracer.write(str(work / "trace_spans.npz"))
        if result["complete"]:
            metrics = per_layer(tracer, round_s(result) - round_s(rounds[0]), w.read_win_rate(out))
    if rounds and not args.trace:
        while len(setup_times) < MIN_SETUPS:
            timed_set_up()
        metrics = end_to_end(rounds, setup_times)
    if gate.failed == 0:
        ledger.save()

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"info {len(rounds)} untraced calls per stage, {len(setup_times)} set-ups")
    print(f"machine {json.dumps(facts, sort_keys=True)}")
    print(json.dumps({
        "correct": gate.failed == 0 and bool(rounds),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    if gate.failed == 0:
        # a passing run keeps only its ledger and spans; a wide run's files come to ~30 MB
        for name in ("inputs", "warmup", "round", "traced"):
            shutil.rmtree(work / name, ignore_errors=True)
    return 0 if gate.failed == 0 and rounds else 1


if __name__ == "__main__":
    sys.exit(main())
