"""Exact verification and filtered search for the equation n! + 1 = m**2."""

# Set before the submodule imports: cli_reporting imports it from here.
__version__ = "0.1.0"

from .conditions import (
    FactorStructure,
    NotASolutionError,
    VerifyReport,
    bound_check,
    candidate_m,
    defect,
    factor_structure,
    factorial_mod,
    is_certificate,
    legendre_certificate,
    verify,
)
from .epsilon_lab import (
    EpsilonProfile,
    check_f_monotone,
    epsilon_digits,
    epsilon_of_k,
    k_ratio_digits,
    nine_run,
)
from .exact_arith import (
    BitBudgetError,
    ScaledDecimal,
    is_prime_64,
    isqrt,
    legendre,
    modpow,
    root_defect,
    root_floor,
    sqrt_digits,
)
from .factorial_engine import (
    CeilingError,
    FactorialState,
    PrimePool,
    advance,
    build_prime_pool,
    factorial_exact,
    initial_state,
    is_factorial,
    primes_above,
    seed_state,
)
from .poly_system import (
    LatticePoint,
    eval_system,
    ferrari_identity_check,
    roots_in_x,
    solve_window,
)
from .qr_filter import FilterOutcome, passes
from .search_engine import (
    CheckpointChecksumError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointPoolMismatchError,
    CheckpointVersionError,
    SearchConfig,
    SearchSummary,
    ShardError,
    load_checkpoint,
    run,
    save_checkpoint,
)
