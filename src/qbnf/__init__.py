"""Quantum Birkhoff normal forms and resonance lattices.

The package computes, degree by degree, the normal form of a semiclassical
operator around a hyperbolic closed orbit (cylinder model) or a complex
scaled saddle point, evaluates the resulting quantization rules as
resonance lattices in a complex window, and validates them against an
independent dense-matrix spectral solve.
"""

from .symbols import (
    FormalSymbol,
    IterationCapError,
    ModelDegeneracyError,
    PhaseSpec,
    SpecMismatchError,
    TauSeries,
    homological_solve,
    lie_transform,
    moyal_commutator,
    moyal_star,
    poisson_bracket,
    star_conjugate,
)
from .normal_form import (
    CylinderModel,
    GeneratorChain,
    ModelValidationError,
    NormalFormPoly,
    SaddleModel,
    closed_orbit_bnf,
    cylinder_symbol,
    equilibrium_bnf,
    orbit_diagnostics,
    saddle_symbol,
)
from .quantize import (
    CylinderBasis,
    DimensionCapError,
    OperatorMatrix,
    SaddleBasis,
    assemble_cylinder,
    assemble_saddle,
    complex_scale,
    direct_spectrum,
    metaplectic_substitute,
)
from .eigensolve import EigensolveError, Spectrum, eigenvalues
from .lattice import (
    ResonanceLattice,
    Window,
    closed_orbit_lattice,
    homogeneity_check,
    predicted_lattice,
    saddle_lattice,
)
from .compare import (
    MatchReport,
    SweepResult,
    auto_basis,
    convergence_sweep,
    match_lattices,
)
from .scenario import (
    ConfigError,
    ScenarioConfig,
    load_config,
    run_scenario,
)

__version__ = "0.1.0"
