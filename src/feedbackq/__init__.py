"""Classical simulation of feedback-based quantum eigenstate preparation.

The library grows layered circuits whose controls are fed back from
Lyapunov-descent measurements, preparing ground states and, through
projector-shifted operators and deflation, excited states as well.
"""

from .pauli import (
    PauliSum,
    commutator_i,
    format_sum,
    one_norm,
    parse_sum,
    product,
)
from .states import (
    StateVector,
    TrotterPlan,
    apply_pauli_exp,
    apply_sum_trotter,
    dense_matrix,
    diagonal_values,
    expectation,
    fidelity,
    inner,
    pauli_expectation,
    pauli_matrix_element,
    reference_spectrum,
)
from .sampling import (
    EXACT,
    ShotBudget,
    derive_seed,
    make_rng,
    sample_hadamard_test,
    sample_pauli_expectation,
    sample_zero_fraction,
)
from .models import (
    CONTROL_KINDS,
    H2Spec,
    IsingSpec,
    MfiSpec,
    build_h2,
    build_ising,
    build_mfi,
    random_ising,
    random_mfi,
    standard_controls,
)
from .feedback import (
    FeedbackConfig,
    FeedbackRunError,
    Shift,
    ShiftedOperator,
    UnsupportedGeneratorError,
    alpha_from_bound,
    alpha_iterative,
    controller_diagonal_fastpath,
    controller_grad_fd,
    controller_grad_psr,
    controller_overlap_sampled,
    deflate_spectrum,
    lyapunov_value,
    run_falqon,
    run_fqae,
    tune_time_step,
)

__version__ = "0.1.0"
