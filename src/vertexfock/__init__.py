"""Exact rational computations in free-field vertex algebras.

Circle products on Fock-space states, the centrally extended algebra of
differential operators on the punctured line and its free-field
realizations, singular vectors and decoupling relations in the vacuum
module, and invariant/commutant subalgebras with their graded
dimension tables.  No floating point anywhere.
"""

from .fock import (
    B,
    BETA,
    C,
    GAMMA,
    AlgebraDescriptor,
    State,
    apply_mode,
    basis,
    charge,
    degree,
    generator_state,
    gr_basis,
    gr_symbol,
    letters,
    mono_charge,
    mono_degree,
    mono_weight,
    parity,
    state_from_json,
    state_to_json,
    state_to_text,
    vacuum,
    weight,
    word,
)
from .invariants import (
    DimTable,
    FiniteAbelianAction,
    LieAlgebraAction,
    TorusAction,
    commutant_basis,
    dim_table,
    extend_action,
    gl_standard,
    gr_dim_table,
    heisenberg_current,
    invariant_basis,
    sl2_standard,
    span_check,
    trivial_action,
    validate_heisenberg,
)
from .linalg import (
    Scalar,
    SparseMatrix,
    det,
    format_scalar,
    kernel_basis,
    parse_scalar,
    rank,
    solve,
)
from .ope import (
    OpeTable,
    check_identities,
    circle,
    current_mode,
    derive,
    iterated_wick,
    locality_bound,
    ope_table,
    wick,
)
from .verma import (
    DecouplingRelation,
    VermaElement,
    act,
    cyclic_span_check,
    decoupling_relation,
    ideal_kernel,
    project,
    project_word,
    singular_vectors,
    vacuum_module_basis,
    verify_decoupling,
)
from .winfinity import (
    DOp,
    action_block_matrix,
    action_coeffs,
    cocycle,
    d_bracket,
    default_central_value,
    express_diagonal_map,
    factorial_ratio_matrix,
    field_mode,
    realize_current,
    rising_product_matrix,
    sub_index,
    verify_rep,
)

__version__ = "0.1.0"
