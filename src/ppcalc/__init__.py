"""pp-formula calculus over finite-dimensional algebras.

Exact linear algebra over prime fields and the rationals; algebras by
structure constants or quivers with relations; finite-dimensional
modules and their hom spaces; pp formulas with free realisations and a
decidable implication order; the lattice map induced by a tensor
embedding; interpretation-functor data with isolating pairs and the
pullback bounds; controlled embeddings and their inverse functors; and
an exhaustive indecomposable enumerator over finite prime fields.
"""

from .algebra import Algebra, AlgebraElement, QuiverSpec, algebra_from_quiver, validate_algebra
from .controlled import (
    EmbeddingData,
    PreEnvelope,
    check_controlled,
    hom_through_C,
    inverse_interp,
    preenvelope,
    roundtrip_check,
)
from .formulas import (
    FreeRealisation,
    PpFormula,
    PpPair,
    conj,
    equivalent,
    eval_formula,
    free_realisation,
    implies,
    pair_open,
    pp_type_generator,
    sum_formula,
    top_formula,
    zero_formula,
)
from .interp import (
    BoundReport,
    InterpData,
    IsolatingPair,
    apply_interp,
    apply_map,
    axiom_pairs,
    bounds,
    hom_interp_data,
    isolating_pair,
    pullback_pair,
)
from .inventory import Inventory, enumerate_indecomposables, verify_completeness
from .lattice import BetaMap, beta, standard_sample, verify_embedding, verify_lattice_hom
from .linalg import GF, QQ, FieldSpec, Mat, Subspace
from .modules import (
    Bimodule,
    FDModule,
    ModuleMap,
    decompose,
    direct_sum,
    fp_module,
    free_module,
    hom_space,
    indecomposability,
    is_direct_summand,
    iso_test,
    quotient_module,
    rad_hom,
    regular_module,
    submodule_generated,
    tensor_over,
    validate_module,
)

__version__ = "0.1.0"
