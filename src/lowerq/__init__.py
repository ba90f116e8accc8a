"""Lower-indexed homology operations and join products on classifying-space
homology, with exhaustive relation verification and an exact GF(p) solver
for product structure constants."""

from .algebra import (
    GeneratorFamily,
    GradedElement,
    JoinAlgebraSpec,
    commutativity_sign,
    n_fold_degree,
)
from .actions import (
    ActionTable,
    ModuleSpec,
    flip_coefficient,
    s1_action,
    s1_algebra,
    s1_candidate_table,
    s1_module,
)
from .fields import FpScalar, binom_mod_p, is_prime, lucas_binom
from .operations import (
    OperationSum,
    OperationWord,
    RelationTable,
    adem_rewrite,
    is_admissible,
    op_degree,
    rewrite_sum,
)
from .solver import LinearSystem, SolverResult, solve_product_table
from .verify import VerificationReport, verify_adem, verify_cartan, verify_sign_laws

__all__ = [
    "ActionTable",
    "FpScalar",
    "GeneratorFamily",
    "GradedElement",
    "JoinAlgebraSpec",
    "LinearSystem",
    "ModuleSpec",
    "OperationSum",
    "OperationWord",
    "RelationTable",
    "SolverResult",
    "VerificationReport",
    "adem_rewrite",
    "binom_mod_p",
    "commutativity_sign",
    "flip_coefficient",
    "is_admissible",
    "is_prime",
    "lucas_binom",
    "n_fold_degree",
    "op_degree",
    "rewrite_sum",
    "s1_action",
    "s1_algebra",
    "s1_candidate_table",
    "s1_module",
    "solve_product_table",
    "verify_adem",
    "verify_cartan",
    "verify_sign_laws",
]

__version__ = "0.1.0"
