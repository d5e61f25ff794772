"""Security laboratory for Rabin oblivious transfer.

Executable protocol simulators, optimal-cheating evaluators, the
cheating-advantage calculus with its balancing construction and lower
bound, and a seeded Monte-Carlo harness that cross-checks every analytic
value against simulation.
"""

from .adversary import (
    AmplitudeTriple,
    CheatStrategy,
    UnsupportedStrategyError,
    alice_qutrit_cheat_prob,
    alice_sequence_cheat_prob,
    bob_qutrit_cheat_prob,
    bob_sequence_cheat_prob,
    coin_forcing_probs,
    execute_cheat,
    optimize_alice_qutrit,
)
from .linalg import (
    ComplexMatrix,
    DensityMatrix,
    DimensionError,
    NumericError,
    ProjectiveMeasurement,
    PureState,
    ValidationError,
    helstrom_prob,
    helstrom_projectors,
    hermitian_eigenvalues,
    kron,
    measure,
    measure_pure,
    partial_trace,
    trace_norm,
)
from .montecarlo import (
    TrialReport,
    estimate_cheat,
    estimate_completeness,
    sequence_detection_experiment,
)
from .protocols import (
    CoinOutcome,
    CoinResult,
    OtPair,
    RotOutcome,
    SequenceConfig,
    Transcript,
    run_bad_classical,
    run_bad_qubit,
    run_coinflip_reduction,
    run_qutrit,
    run_sequence,
)
from .security import (
    BalanceResult,
    CheatProfile,
    ConsistencyError,
    HeadlineReport,
    PreconditionError,
    advantage,
    balance,
    check_kitaev_product,
    kitaev_min_advantage,
    reproduce_headline_table,
)

__version__ = "0.1.0"
