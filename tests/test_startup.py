"""What importing brocard costs: which modules each entry point loads."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import brocard

ROOT = Path(__file__).resolve().parents[1]

# Every name the package exports, with the submodule it comes from.
EXPORTS = {
    "conditions": ["FactorStructure", "NotASolutionError", "VerifyReport", "factor_structure",
                   "factorial_mod", "is_certificate", "legendre_certificate", "verify"],
    "epsilon_lab": ["EpsilonProfile", "FactorialRoot", "check_f_monotone", "epsilon_digits",
                    "epsilon_of_k", "k_ratio_digits", "nine_run"],
    "exact_arith": ["BitBudgetError", "ScaledDecimal", "is_prime_64", "isqrt", "legendre",
                    "sqrt_digits"],
    "factorial_engine": ["CeilingError", "FactorialState", "PrimePool", "StreamError",
                         "build_prime_pool", "factorial_exact", "is_factorial", "primes_above",
                         "seed_state"],
    "poly_system": ["LatticePoint", "eval_system", "ferrari_identity_check", "roots_in_x",
                    "solve_window"],
    "qr_filter": ["FilterOutcome", "passes"],
    "search_engine": ["CheckpointError", "SearchConfig", "SearchSummary", "ShardError",
                      "load_checkpoint", "run", "save_checkpoint"],
}


def _loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return set(json.loads(out))


def test_import_brocard_loads_no_submodule():
    loaded = _loaded_after("import brocard")
    assert {m for m in loaded if m.startswith("brocard.")} == set()
    assert "dataclasses" not in loaded


def test_cli_module_leaves_rare_paths_unloaded():
    loaded = _loaded_after("import brocard.cli_reporting")
    assert loaded.isdisjoint({"dataclasses", "inspect", "traceback", "brocard.poly_system"})


def test_pool_build_loads_only_its_layers():
    loaded = _loaded_after("import brocard\nbrocard.build_prime_pool(1000, 4)")
    assert {m for m in loaded if m.startswith("brocard.")} == \
        {"brocard.factorial_engine", "brocard.exact_arith"}


def test_exports_resolve_to_their_submodules():
    listed = dir(brocard)
    for submodule, names in EXPORTS.items():
        module = importlib.import_module(f"brocard.{submodule}")
        for name in names:
            assert getattr(brocard, name) is getattr(module, name), name
            assert name in listed, name
    assert sorted(brocard.__all__) == sorted(n for names in EXPORTS.values() for n in names)


def test_unknown_names_raise_and_submodules_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        brocard.no_such_name
    assert not hasattr(brocard, "modpow")
    from brocard import cli_reporting

    assert cli_reporting is sys.modules["brocard.cli_reporting"]


def test_traced_benchmark_hooks_exist():
    # bench/traced.py wraps each (owner, attr) where the caller looks it up;
    # an import moved into a function would leave its wrapper unused
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        traced = importlib.import_module("traced")
    finally:
        sys.path.remove(str(ROOT / "bench"))
    for owner, attr, _ in traced.TARGETS:
        assert attr in owner.__dict__, (owner.__name__, attr)
