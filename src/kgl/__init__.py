"""Numerical laboratory for operator-valued kernels over finite Hilbert bundles.

The package builds minimal Hilbert and Krein linearisations of
positive-semidefinite and Hermitian kernels, reproducing-kernel views,
and representations of finite star-semigroupoids acting on the base.
Everything is finite dimensional and checked against explicit residual
tolerances; every verification returns records suitable for reports.
The module kgl.pipelines runs each command of the `kgl` CLI as one call.
"""

from . import errors, pipelines
from .bundle import (
    HilbertBundle,
    PartIndex,
    Section,
    delta_section,
    part_index,
    section_from_dict,
)
from .hilbert_lin import (
    HilbertRepresentation,
    invariant_representation,
    minimal_linearisation,
    partial_isometry_report,
)
from .kernel import (
    OpKernel,
    Partition,
    adjoint_kernel,
    bounded_shift_constants,
    conv_blocks,
    dominates,
    hermitian_records,
    identity_kernel,
    invariance_record,
    is_invariant,
    is_partially_hermitian,
    is_partially_psd,
    kernel_from_part_grams,
    kernel_inner,
    kernel_lincomb,
    partition_from_action,
    partition_from_anchor,
    psd_records,
    single_partition,
    zero_kernel,
)
from .krein_core import (
    InducedKrein,
    KreinSpace,
    hilbert_space,
    induced_krein,
    krein_adjoint,
    krein_space,
    lift_operator,
)
from .krein_lin import (
    KreinLinearisation,
    KreinRepresentation,
    RkKreinView,
    canonical_dominant,
    fundamental_reducibility_check,
    gram_operator,
    invariant_krein_representation,
    j_unitary_equivalence,
    jordan_split,
    krein_linearisation,
    krein_representation_laws,
    rk_krein_space,
    split_records,
    uniqueness_report,
    verify_krein_factorization,
)
from .numlin import DEFAULT_TOL, Tolerances
from .reports import Record, Report, report_to_json, save_report
from .sgpd import (
    Classification,
    LeftAction,
    StarSemigroupoid,
    classify,
    generate,
    group_action,
    group_as_groupoid,
    pair_groupoid,
    partial_bijections,
    self_action,
    symbol_action,
    validate,
    validate_action,
)

__version__ = "0.1.0"

__all__ = [
    "errors", "pipelines",
    "HilbertBundle", "PartIndex", "Section",
    "delta_section", "part_index", "section_from_dict",
    "OpKernel", "Partition",
    "adjoint_kernel", "bounded_shift_constants",
    "conv_blocks", "dominates", "hermitian_records",
    "identity_kernel", "invariance_record", "is_invariant", "is_partially_hermitian",
    "is_partially_psd", "kernel_from_part_grams", "kernel_inner",
    "kernel_lincomb", "partition_from_action", "partition_from_anchor",
    "psd_records", "single_partition", "zero_kernel",
    "HilbertRepresentation",
    "invariant_representation", "minimal_linearisation", "partial_isometry_report",
    "InducedKrein", "KreinSpace",
    "hilbert_space", "induced_krein", "krein_adjoint",
    "krein_space", "lift_operator",
    "KreinLinearisation", "KreinRepresentation", "RkKreinView",
    "canonical_dominant", "fundamental_reducibility_check", "gram_operator",
    "invariant_krein_representation", "j_unitary_equivalence", "jordan_split",
    "krein_linearisation", "krein_representation_laws", "rk_krein_space",
    "split_records", "uniqueness_report", "verify_krein_factorization",
    "DEFAULT_TOL", "Tolerances",
    "Record", "Report", "report_to_json", "save_report",
    "Classification", "LeftAction", "StarSemigroupoid",
    "classify", "generate", "group_action", "group_as_groupoid",
    "pair_groupoid", "partial_bijections", "self_action", "symbol_action",
    "validate", "validate_action",
    "__version__",
]
