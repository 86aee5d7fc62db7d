"""Self-contained verification suites behind `rfpnapo verify --suite NAME`.

Every suite runs committed seeds only — no inputs, no files — and reports one
line per check so regressions localize immediately.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import chain_rule_identity, estimator_variance, random_chain
from .baselines import dpo_value_grad, sft_value_grad
from .numerics import FunctionLoss, MlpSpec, finite_diff_check, mlp_init
from .pnapo import BetaSchedule, f_controller, g_controller, pnapo_value_grad, score_gap
from .prefdata import DatasetHeader, PreferenceDataset, build_dataset
from .rectflow import cfm_objective, default_mixture
from .training import run_pretrain

GRAD_TOL = 1e-4
KL_TOL = 1e-9
CHAIN_TOL = 1e-10
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    lhs: float
    rhs: float
    tolerance: float

    @property
    def status(self) -> str:
        return "PASS" if self.ok else "FAIL"


def _random_pair(rng: np.random.Generator, spec: MlpSpec, delta_r: float) -> PreferenceDataset:
    d = spec.data_dim
    header = DatasetHeader(dim=d, cond_dim=spec.cond_dim, steps=1, ref_hash="verify")
    cond = np.eye(spec.cond_dim)[rng.integers(spec.cond_dim, size=1)]
    # one block, the stream of four (d,) draws: winner x0, loser x0, winner xT, loser xT
    x0, xT = rng.standard_normal((2, 1, 2, d))
    return PreferenceDataset(header, cond, x0, xT, [delta_r])


def suite_gradcheck() -> list[CheckResult]:
    """Analytic gradients of all four losses against central differences."""
    spec = MlpSpec(data_dim=2, cond_dim=3, hidden=(10, 8))
    params = mlp_init(spec, 101)
    ref = mlp_init(spec, 202)
    rng = np.random.default_rng(31)

    rows = (
        rng.standard_normal((4, 2)),
        rng.standard_normal((4, 2)),
        np.eye(3)[rng.integers(3, size=4)],
        rng.random(4) * 0.95,
    )
    pair = _random_pair(rng, spec, delta_r=0.7)
    eps = rng.standard_normal((1, 2, 2))
    sft_pairs = pair.take([0, 0, 0])
    sft_xT = rng.standard_normal((3, 2))
    sft_t = rng.random(3) * 0.95
    objectives = {
        "gradcheck_cfm": cfm_objective(spec, *rows),
        "gradcheck_pnapo": FunctionLoss(lambda p: pnapo_value_grad(p, ref, spec, pair, 0.37, np.array([3.0]))),
        "gradcheck_dpo": FunctionLoss(lambda p: dpo_value_grad(p, ref, spec, pair, eps, 0.53, 2.5)),
        "gradcheck_sft": FunctionLoss(lambda p: sft_value_grad(p, spec, sft_pairs, sft_xT, sft_t)),
    }
    results = []
    for name, obj in objectives.items():
        err = finite_diff_check(obj, params, h=1e-5)
        results.append(CheckResult(name, err < GRAD_TOL, err, 0.0, GRAD_TOL))
    return results


def suite_kl() -> list[CheckResult]:
    """100 exact enumerations: conditioning bound and chain-rule decomposition.

    Each seed's chain has differing endpoint marginals, so the bound's two
    sides (mean conditional KL, joint KL) differ by that seed's endpoint KL.
    """
    results = []
    for seed in range(100):
        chain = random_chain(seed, n_states=4, horizon=3)
        total, endpoint, conditional = chain_rule_identity(chain, x0=seed % 4)
        results.append(
            CheckResult(f"kl_gap_s{seed:03d}", conditional <= total + KL_TOL, conditional, total, KL_TOL)
        )
        gap = abs(total - (endpoint + conditional))
        results.append(CheckResult(f"chain_rule_s{seed:03d}", gap <= CHAIN_TOL, gap, 0.0, CHAIN_TOL))
    return results


def suite_variance() -> list[CheckResult]:
    """Score-gap estimator: stored noise pins the draw; fresh noise does not."""
    spec = MlpSpec(data_dim=2, cond_dim=4, hidden=(16, 16))
    mixture = default_mixture(2, 4, 0.4)
    ref, _ = run_pretrain(spec, mixture, steps=300, batch=32, lr=3e-3, seed=11)
    model, _ = run_pretrain(spec, mixture, steps=450, batch=32, lr=3e-3, seed=11)
    centers = np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]])
    dataset = build_dataset(ref, spec, centers, steps=25, n_records=1, base_seed=5, ref_hash="verify")
    base = score_gap(model, ref, spec, dataset, t=0.37)[0]
    worst = max(abs(score_gap(model, ref, spec, dataset, t=0.37)[0] - base) for _ in range(100))
    var_stored, var_fresh = estimator_variance(model, ref, spec, dataset, n_draws=1000, seed=123)
    return [
        CheckResult("variance_pinned_t_bitident", worst == 0.0, worst, 0.0, 0.0),
        CheckResult("variance_fresh_noise_positive", var_fresh > 0.0, var_fresh, 0.0, 0.0),
        # informational: both variances recorded; the ratio is never asserted
        CheckResult("variance_stored_vs_fresh", True, var_stored, var_fresh, 0.0),
    ]


def suite_schedule() -> list[CheckResult]:
    """Exact values, boundary continuity, and monotonicity of both controllers."""
    sched = BetaSchedule(beta=1.0, n1=1000, n2=2000, dynamic=True)
    n1, n2 = sched.n1, sched.n2
    results = []

    f0 = f_controller(0.0)
    results.append(CheckResult("schedule_f_zero_gap", f0 == 0.0, f0, 0.0, 0.0))
    f_half = abs(f_controller(math.log(3.0)) - 0.5)
    results.append(CheckResult("schedule_f_log3_half", f_half <= EXACT_TOL, f_half, 0.0, EXACT_TOL))
    f10 = f_controller(10.0)
    results.append(CheckResult("schedule_f_saturates", f10 > 0.9999, f10, 0.9999, 0.0))

    g_mid = abs(g_controller(1500, sched) - 0.8535533905932737)
    results.append(CheckResult("schedule_g_midpoint", g_mid <= EXACT_TOL, g_mid, 0.0, EXACT_TOL))
    g_n1 = g_controller(n1, sched)
    results.append(CheckResult("schedule_g_flat_before", g_n1 == 1.0, g_n1, 1.0, 0.0))
    g_n2 = g_controller(n2, sched)
    results.append(CheckResult("schedule_g_floor_after", g_n2 == 0.5, g_n2, 0.5, 0.0))

    def cosine_branch(n: float) -> float:
        return 0.5 + 0.5 * math.cos(0.5 * math.pi * (n - n1) / (n2 - n1))

    gap_n1 = abs(g_controller(n1, sched) - cosine_branch(n1))
    gap_n2 = abs(g_controller(n2, sched) - cosine_branch(n2))
    results.append(CheckResult("schedule_g_continuous_n1", gap_n1 < EXACT_TOL, gap_n1, 0.0, EXACT_TOL))
    results.append(CheckResult("schedule_g_continuous_n2", gap_n2 < EXACT_TOL, gap_n2, 0.0, EXACT_TOL))

    gaps = np.linspace(0.0, 12.0, 10_000)
    f_vals = f_controller(gaps)
    f_min_step = float(np.min(np.diff(f_vals)))
    results.append(
        CheckResult("schedule_f_strictly_increasing", f_min_step > 0.0, f_min_step, 0.0, 0.0)
    )
    steps = np.linspace(0.0, 3000.0, 10_000)
    g_vals = np.array([g_controller(float(n), sched) for n in steps])
    g_max_step = float(np.max(np.diff(g_vals)))
    results.append(
        CheckResult("schedule_g_nonincreasing", g_max_step <= 0.0, g_max_step, 0.0, 0.0)
    )
    return results


SUITES = {
    "gradcheck": suite_gradcheck,
    "kl": suite_kl,
    "variance": suite_variance,
    "schedule": suite_schedule,
}
