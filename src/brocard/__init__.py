"""Exact verification and filtered search for the equation n! + 1 = m**2.

`import brocard` loads no submodule. Each name below is imported from its
submodule on first access (PEP 562), so a process pays only for the
layers it uses.
"""

# cli_reporting imports it from here.
__version__ = "0.1.0"

_SUBMODULE = {
    **dict.fromkeys((
        "FactorStructure",
        "NotASolutionError",
        "VerifyReport",
        "factor_structure",
        "factorial_mod",
        "is_certificate",
        "legendre_certificate",
        "verify",
    ), "conditions"),
    **dict.fromkeys((
        "EpsilonProfile",
        "FactorialRoot",
        "check_f_monotone",
        "epsilon_digits",
        "epsilon_of_k",
        "k_ratio_digits",
        "nine_run",
    ), "epsilon_lab"),
    **dict.fromkeys((
        "BitBudgetError",
        "ScaledDecimal",
        "is_prime_64",
        "isqrt",
        "legendre",
        "sqrt_digits",
    ), "exact_arith"),
    **dict.fromkeys((
        "CeilingError",
        "FactorialState",
        "PrimePool",
        "StreamError",
        "build_prime_pool",
        "factorial_exact",
        "is_factorial",
        "primes_above",
        "seed_state",
    ), "factorial_engine"),
    **dict.fromkeys((
        "LatticePoint",
        "eval_system",
        "ferrari_identity_check",
        "roots_in_x",
        "solve_window",
    ), "poly_system"),
    **dict.fromkeys((
        "FilterOutcome",
        "passes",
    ), "qr_filter"),
    **dict.fromkeys((
        "CheckpointError",
        "SearchConfig",
        "SearchSummary",
        "ShardError",
        "load_checkpoint",
        "run",
        "save_checkpoint",
    ), "search_engine"),
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str) -> object:
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE})
