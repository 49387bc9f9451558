"""Acceptance battery: every criterion at its stated tolerance.

Runs the nine criteria once (module scope), prints one pass/fail line per
criterion, and asserts each criterion plus its stated runtime budget.
The cache-state determinism test then drops all caches, re-runs the
battery and requires byte-identical JSON records.
"""

import importlib
import pkgutil

import pytest

import siegelsums
from siegelsums import acceptance, expsums, petersson
from siegelsums.matcore import HalfIntegralForm, IntMat2
from support import salie_bound


@pytest.fixture(scope="module")
def battery():
    records, timings = acceptance.run_all()
    for rec in records:
        status = "PASS" if rec["pass"] else "FAIL"
        print(f"{status} criterion {rec['criterion']}: {rec['name']} "
              f"({timings[rec['criterion']]:.2f}s)")
    return {rec["criterion"]: rec for rec in records}, timings


RUNTIME_BUDGETS = {1: 10.0, 2: 60.0, 4: 5.0, 5: 120.0, 8: 60.0, 9: 600.0}


def _check(battery, n):
    records, timings = battery
    rec = records[n]
    if n in RUNTIME_BUDGETS:
        assert timings[n] < RUNTIME_BUDGETS[n], (
            f"criterion {n} exceeded its runtime budget: {timings[n]:.1f}s")
    assert rec["pass"], rec
    return rec


def test_criterion_01_kloosterman_oracle(battery):
    rec = _check(battery, 1)
    assert rec["max_deviation"] <= 1e-9
    assert rec["pinned_deviation"] <= 1e-9


def test_criterion_02_factorization(battery):
    rec = _check(battery, 2)
    assert rec["max_bezout_deviation"] <= 1e-9


def test_criterion_03_equivariance(battery):
    rec = _check(battery, 3)
    assert rec["instances"] == 100


def test_criterion_04_congruence_counts(battery):
    _check(battery, 4)


def test_criterion_05_twisted_average(battery):
    rec = _check(battery, 5)
    assert rec["identities_tested"] >= 7 * 36


def test_criterion_06_gauss_salie_bounds(battery):
    rec = _check(battery, 6)
    assert rec["worst_gauss_ratio"] <= 1.0 + 1e-12
    assert rec["worst_salie_ratio"] <= 1.0 + 1e-12
    # closed form against the grid at c <= 20, where phi(c) c <= 400: both
    # routes within their derived bound
    assert rec["worst_salie_grid_deviation"] <= 2 * salie_bound(400, 20)


def test_criterion_07_kernels(battery):
    _check(battery, 7)


def test_criterion_08_main_term_constants(battery):
    _check(battery, 8)


def test_criterion_09_spectral_consistency(battery):
    rec = _check(battery, 9)
    assert rec["h_II_epsilon"] < 1.0


def test_criterion_10_cache_state_determinism(battery):
    records, _ = battery
    base = acceptance.records_json(list(records.values()))
    acceptance.clear_all_caches()
    rerun, _ = acceptance.run_all()
    assert acceptance.records_json(rerun) == base


def _library_caches() -> dict[str, object]:
    """Every memoized function bound at module level in the package."""
    caches = {}
    for info in pkgutil.iter_modules(siegelsums.__path__):
        module = importlib.import_module(f"siegelsums.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info"):
                caches[f"{info.name}.{name}"] = obj
    return caches


def test_clear_all_caches_empties_every_cache():
    # a cache that survives would let the determinism re-run of criterion
    # 10 (and any "cold" measurement) read warm tables
    f, g = HalfIntegralForm(1, 0, 1), HalfIntegralForm(1, 1, 2)
    expsums.kloosterman(f, g, IntMat2(2, 1, 1, 3))
    expsums.kloosterman_pI(f, g, 3)
    expsums.salie(f, HalfIntegralForm(2, 1, 1), 6)
    petersson.h_fourier(f, g, petersson.SpectralParams(k=10, level=3,
                                                      rank1_cutoff=3))
    petersson.main_term_residue(1, 1, 100.0, 10)
    caches = _library_caches()
    assert {"sp4.coset_data", "expsums._unit_table",
            "expsums._pI_grid", "petersson._residue_series"} <= set(caches)
    assert all(fn.cache_info().currsize > 0 for fn in caches.values())
    acceptance.clear_all_caches()
    assert {name: fn.cache_info().currsize for name, fn in caches.items()
            if fn.cache_info().currsize} == {}
