"""Tangled modal logics toolkit.

Formula syntax and parsing, Kripke and topological semantics for the modal
mu-calculus with tangle operators, translations between fragments, model
filtration and untangling, axiom schemas with frame correspondence checks,
and bounded counter-model search.
"""

import importlib

from .formula import (
    And,
    Atom,
    Bot,
    Box,
    BoxD,
    CaptureError,
    ClosureSet,
    Dia,
    DiaD,
    Exists,
    Forall,
    Formula,
    FormulaError,
    Iff,
    Implies,
    Mu,
    Neg,
    Nu,
    Or,
    ParseError,
    PositivityError,
    Tangle,
    TangleD,
    Top,
    all_names,
    box_star,
    conj,
    dia_star,
    disj,
    free_atoms,
    fresh_names,
    immediate_subformulas,
    parse,
    positive_in,
    pretty,
    subformula_closure,
    substitute,
)
from .kripke import (
    BudgetExceededError,
    ClusterDecomposition,
    Closures,
    Evaluator,
    Frame,
    KripkeModel,
    NonTransitiveError,
    RelationProperties,
    cluster_decomposition,
    closures,
    generated_submodel,
    locally_n_connected,
    min_local_connectedness,
    model_check,
    model_from_dict,
    model_to_dict,
    path_components,
    relation_properties,
    to_dot,
)
from .translate import TranslationError, star, to_d, to_mu

#: The exports of the modules that load on first use, by module.  Reading
#: one of them through the package (``tangles.untangle``, ``from tangles
#: import bounded_sat``) imports its module and binds all of its names here.
_DEFERRED = {
    "topo": (
        "FiniteSpace",
        "SetOperators",
        "SpaceError",
        "SpacePredicates",
        "TopoModel",
        "alexandrov",
        "operators",
        "space_from_dict",
        "space_predicates",
        "space_to_dict",
        "topo_model_check",
        "topo_model_from_dict",
    ),
    "filtration": (
        "AtomicTypeData",
        "CharacteristicReport",
        "CriticalPointError",
        "FiltrationResult",
        "FrameProfile",
        "PreservationReport",
        "ReductionReport",
        "UntangleResult",
        "characteristic_formulas",
        "defining_formula",
        "filtrate",
        "preservation_report",
        "reduction_conditions",
        "untangle",
        "verify_reduction",
    ),
    "logics": (
        "LogicProfile",
        "ProfileError",
        "SchemaError",
        "ValidityReport",
        "bounded_sat",
        "enumerate_frames",
        "figure3_constraints",
        "figure3_model",
        "frame_validates",
        "instantiate",
        "named_frames",
        "parse_profile",
    ),
}


def __getattr__(name):
    """A deferred export, or the standard ``AttributeError``."""
    for module, names in _DEFERRED.items():
        if name in names:
            loaded = importlib.import_module(f".{module}", __name__)
            globals().update({n: getattr(loaded, n) for n in names})
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    """The names bound so far and the deferred exports."""
    return sorted(set(globals()).union(*_DEFERRED.values()))


__version__ = "0.1.0"
