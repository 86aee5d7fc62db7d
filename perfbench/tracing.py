"""Per-layer tracing of rfpnapo from outside the package.

``instrument`` swaps each traced public function for a wrapper in every
rfpnapo module that binds it (the package binds kernels with
``from .numerics import ...``, so patching ``numerics`` alone would miss most
calls), and wraps the closures the ``make_*_term`` factories return. Each
wrapper records a span (name, start, end, parent) in memory and adds its
counts. Self time is a span's duration minus the time its child spans cover;
children of one span never overlap because the pipeline is single-threaded.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans kept in flat arrays, plus per-name call, busy and self totals."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name_id = array("H")
        self.stack: list[list[int]] = []  # [span index, ns covered by children]
        self.stats: dict[str, list[int]] = {}  # name -> [calls, busy ns, self ns]
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, after=None):
        """fn wrapped in a span called name; after(counts, args, result) adds counts."""
        if name not in self.stats:
            self.stats[name] = [0, 0, 0]
            self.names.append(name)
        nid = self.names.index(name)
        totals = self.stats[name]
        stack, start, end, parent, name_id = self.stack, self.start, self.end, self.parent, self.name_id
        counts = self.counts

        def traced(*args, **kwargs):
            # the span's slot is taken on entry, so a parent's index is fixed
            # before any of its children are recorded
            idx = len(start)
            parent.append(stack[-1][0] if stack else -1)
            name_id.append(nid)
            start.append(0)
            end.append(0)
            frame = [idx, 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                dur = t1 - t0
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def busy_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[2] / 1e9

    def write(self, path: str) -> None:
        """Dump every span (start/end ns, parent index, name) as an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


# --- counters -------------------------------------------------------------------

@functools.cache
def _macs(spec) -> int:
    """Multiply-accumulates of one single-row forward pass: sum of fan_out * fan_in."""
    return sum(r * c for r, c in spec.layer_shapes())


def _flops_forward_single(counts, args, result):
    counts["numerics.flops"] += 2 * _macs(args[1])


def _flops_vjp_single(counts, args, result):
    # an outer product and a transposed matvec per layer
    counts["numerics.flops"] += 3 * _macs(args[1])


def _forward_batch(counts, args, result):
    rows = args[2].shape[0]
    counts["numerics.forward_batch.rows"] += rows
    counts["numerics.flops"] += 2 * rows * _macs(args[1])


def _flops_vjp_batch(counts, args, result):
    # two GEMMs per layer: weight gradient and input gradient
    counts["numerics.flops"] += 4 * args[3].shape[0] * _macs(args[1])


def _bytes_of(name: str):
    # called after the wrapped read or write, so the file is complete
    def add(counts, args, result):
        counts[name + ".bytes"] += os.path.getsize(args[0])
    return add


def _kept(name: str):
    def add(counts, args, result):
        counts[name + ".in"] += len(args[0])
        counts[name + ".kept"] += len(result)
    return add


def _kmeans_iters(counts, args, result):
    counts["corpus.kmeans.iters"] += len(result[2])


def _term_factory(tracer: Tracer, factory, span: str):
    def make(*args, **kwargs):
        return tracer.wrap(span, factory(*args, **kwargs))
    return make


def _objective_factory(tracer: Tracer, factory, span: str):
    # the objective's cost is in evaluating the returned loss, so its
    # methods join the factory's span
    def make(*args, **kwargs):
        loss = factory(*args, **kwargs)
        loss.value = tracer.wrap(span, loss.value)
        loss.value_and_grad = tracer.wrap(span, loss.value_and_grad)
        return loss
    return make


def _targets(tracer: Tracer):
    """(module, attribute, replacement builder) for every traced function."""
    w = tracer.wrap
    return [
        ("numerics", "mlp_forward", lambda f: w("numerics.forward_single", f, _flops_forward_single)),
        ("numerics", "forward_single_cached", lambda f: w("numerics.forward_single", f, _flops_forward_single)),
        ("numerics", "unpack_params", lambda f: w("numerics.unpack_params", f)),
        ("numerics", "vjp_single", lambda f: w("numerics.vjp_single", f, _flops_vjp_single)),
        ("numerics", "forward_batch_cached", lambda f: w("numerics.forward_batch", f, _forward_batch)),
        ("numerics", "vjp_batch", lambda f: w("numerics.vjp_batch", f, _flops_vjp_batch)),
        ("numerics", "adam_step", lambda f: w("numerics.adam_step", f)),
        ("numerics", "read_checkpoint", lambda f: w("numerics.checkpoint", f, _bytes_of("numerics.checkpoint"))),
        ("numerics", "write_checkpoint", lambda f: w("numerics.checkpoint", f, _bytes_of("numerics.checkpoint"))),
        ("rectflow", "euler_sample", lambda f: w("rectflow.euler_sample", f)),
        ("rectflow", "cfm_objective", lambda f: _objective_factory(tracer, w("rectflow.cfm_objective", f),
                                                                   "rectflow.cfm_objective")),
        ("prefdata", "build_dataset", lambda f: w("prefdata.build_dataset", f)),
        ("prefdata", "reward_eval", lambda f: w("prefdata.reward_eval", f)),
        ("prefdata", "write_dataset", lambda f: w("prefdata.write_dataset", f, _bytes_of("prefdata.write_dataset"))),
        ("prefdata", "read_dataset", lambda f: w("prefdata.read_dataset", f, _bytes_of("prefdata.read_dataset"))),
        ("pnapo", "pnapo_value_grad", lambda f: w("pnapo.value_grad", f)),
        ("pnapo", "make_pnapo_term", lambda f: _term_factory(tracer, f, "pnapo.term")),
        ("baselines", "dpo_value_grad", lambda f: w("baselines.dpo_value_grad", f)),
        ("baselines", "make_dpo_term", lambda f: _term_factory(tracer, f, "baselines.dpo_term")),
        ("baselines", "make_sft_term", lambda f: _term_factory(tracer, f, "baselines.sft_term")),
        ("training", "step_with_terms", lambda f: w("training.step_with_terms", f)),
        ("analytics", "eval_reward", lambda f: w("analytics.eval_reward", f)),
        ("analytics", "win_rate", lambda f: w("analytics.win_rate", f)),
        ("corpus", "toxicity_filter", lambda f: w("corpus.toxicity_filter", f, _kept("corpus.toxicity_filter"))),
        ("corpus", "jaccard_dedup", lambda f: w("corpus.jaccard_dedup", f, _kept("corpus.jaccard_dedup"))),
        ("corpus", "embedding_dedup", lambda f: w("corpus.embedding_dedup", f, _kept("corpus.embedding_dedup"))),
        ("corpus", "kmeans_cluster", lambda f: w("corpus.kmeans_cluster", f)),
        ("corpus", "lloyd_iterations", lambda f: w("corpus.lloyd_iterations", f, _kmeans_iters)),
        ("corpus", "cluster_resample", lambda f: w("corpus.cluster_resample", f, _kept("corpus.cluster_resample"))),
        ("corpus", "read_corpus", lambda f: w("corpus.read", f, _bytes_of("corpus.read"))),
        ("corpus", "write_corpus", lambda f: w("corpus.write", f, _bytes_of("corpus.write"))),
        ("fileio", "sha256_file", lambda f: w("fileio.sha256", f, _bytes_of("fileio.sha256"))),
        ("config", "load_config", lambda f: w("config.load_config", f)),
        ("cli", "cmd_pretrain", lambda f: w("cli.pretrain", f)),
        ("cli", "cmd_gen_pairs", lambda f: w("cli.gen-pairs", f)),
        ("cli", "cmd_align", lambda f: w("cli.align", f)),
        ("cli", "cmd_eval", lambda f: w("cli.eval", f)),
        ("cli", "cmd_corpus", lambda f: w("cli.corpus", f)),
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Patch every binding of the traced functions for the duration of the block."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "rfpnapo" or name.startswith("rfpnapo."))]
    patched = []
    try:
        for mod_name, attr, build in _targets(tracer):
            original = getattr(sys.modules[f"rfpnapo.{mod_name}"], attr)
            replacement = build(original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, replacement)
                        patched.append((mod, key, original))
        yield tracer
    finally:
        for mod, key, original in reversed(patched):
            setattr(mod, key, original)
