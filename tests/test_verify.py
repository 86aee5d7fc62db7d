from __future__ import annotations

import pytest

from rfpnapo.analytics import chain_rule_identity, random_chain
from rfpnapo.verify import SUITES, suite_gradcheck, suite_kl, suite_schedule, suite_variance


def test_registry_exposes_all_suites():
    assert set(SUITES) == {"gradcheck", "kl", "variance", "schedule"}


def test_gradcheck_suite_green():
    results = suite_gradcheck()
    assert len(results) == 4
    assert all(r.ok for r in results)
    assert {r.name for r in results} == {
        "gradcheck_cfm", "gradcheck_pnapo", "gradcheck_dpo", "gradcheck_sft",
    }
    assert all(r.lhs < 1e-4 for r in results)


def test_kl_suite_green_and_complete():
    results = suite_kl()
    assert len(results) == 200  # 100 bound checks + 100 decomposition checks
    assert all(r.ok for r in results)
    # the bound compares two different numbers: the joint KL (rhs) exceeds
    # the mean conditional KL (lhs) by the seed's endpoint KL
    gaps = [r for r in results if r.name.startswith("kl_gap_s")]
    assert [r.name for r in gaps] == [f"kl_gap_s{seed:03d}" for seed in range(100)]
    for seed, r in enumerate(gaps):
        _, endpoint, _ = chain_rule_identity(random_chain(seed, 4, 3), x0=seed % 4)
        assert r.rhs > r.lhs
        assert r.rhs - r.lhs == pytest.approx(endpoint, rel=1e-9, abs=1e-12)


def test_variance_suite_green():
    results = suite_variance()
    assert all(r.ok for r in results)
    by_name = {r.name: r for r in results}
    assert by_name["variance_pinned_t_bitident"].lhs == 0.0
    assert by_name["variance_fresh_noise_positive"].lhs > 0.0
    # informational line carries both variances for the report
    info = by_name["variance_stored_vs_fresh"]
    assert info.lhs >= 0.0 and info.rhs > 0.0


def test_schedule_suite_green():
    results = suite_schedule()
    assert all(r.ok for r in results)
    assert len(results) == 10
