"""Exact symbolic deformations of invariant generalized complex structures.

Given a Lie algebra by structure constants and an invariant complex or
symplectic structure (or an explicit isotropic subbundle), the engine builds
the associated eigenbundle, solves the generalized Maurer-Cartan equation
over an exact polynomial parameter ring, reduces by gauge directions, and
classifies the type of every deformed structure.  The four-dimensional
Kodaira-surface frame is the built-in instance.
"""

from .algebroid import (
    AlgebroidError,
    IsotropicSubbundle,
    build_complex_eigenbundle,
    build_symplectic_eigenbundle,
    complex_eigenbundle,
)
from .courant import GenSection, bracket_table, courant_bracket, pair
from .deformation import (
    DeformationError,
    DeformationFamily,
    DeformationMap,
    MCSystem,
    Stratification,
    TypeStratum,
    classify,
    constrain_map,
    deform_subbundle,
    gauge_image,
    mc_residual,
    reduce_family,
    solve_mc_system,
    stratify_type,
    type_of,
)
from .frame import (
    ComplexFrame,
    ComplexOp,
    ExteriorForm,
    FrameAlgebra,
    FrameError,
    eigenframe,
    kodaira_preset,
)
from .scalar import (
    DerivationSymbol,
    GaussianRational,
    PolyScalar,
    Symbol,
    function,
    parameter,
    parse_gaussian,
    poly,
    solve_linear,
)

__version__ = "0.1.0"
