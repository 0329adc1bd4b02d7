"""Exact o*-basis decisions for symmetry classes of tensors over semidirect
and wreath products of finite abelian groups."""

from .cyclotomic import (
    CONDUCTOR_CAP,
    CycloNum,
    cyclotomic_polynomial,
    lam_leung_certifies_nonzero,
    prime_factors,
    root_of_unity,
)
from .errors import BudgetError, ConfigError, ConsistencyError
from .groups import (
    AbelianGroup,
    ActionHom,
    Automorphism,
    PermRep,
    SemidirectGroup,
    WreathSpec,
    build_wreath,
    dihedral,
    enumerate_subgroups,
    group_pq,
    regular_rep,
    z_group,
)
from .characters import (
    CharTable,
    DualChar,
    DualOrbit,
    IrredChar,
    LinearChar,
    character_table,
    char_value_general,
    dual_group,
    dual_act,
    dual_of_subgroup,
    dual_orbits,
    export_chartable_csv,
    irred_chars,
    validate_table,
    zero_set,
)
from .symclass import (
    GramMatrix,
    OrbitRecord,
    act,
    coset_sums,
    coset_transversal,
    cycle_count,
    cyclo_rank,
    dim_symmetry_class,
    explicit_symmetrized_tensor,
    export_orbits_csv,
    generalized_matrix_function,
    gram,
    inner_product,
    orbit_scan,
    stabilizer,
    tensor_inner,
)
from .decide import (
    ADMITS,
    BRUTE_FORCE,
    INCONCLUSIVE,
    LINEAR_CHARACTER,
    MAIN_THEOREM,
    NAMED_FAMILY,
    NOT_ADMITS,
    SUBGROUP_CRITERION,
    WREATH_COROLLARY,
    Verdict,
    brute_force_verify,
    decide_main_theorem,
    decide_named_family,
    decide_pipeline,
    decide_subgroup_criterion,
    find_trivial_stabilizer_alpha,
)
from .cli import parse_config, run_job

__version__ = "0.1.0"
