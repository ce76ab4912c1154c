"""Exact solver and verification engine for non-Archimedean Monge-Ampere
equations in their two computable reductions: discrete real Monge-Ampere
of convex piecewise-affine potentials over a Newton polytope, and Laplace
equations on metric graphs."""

from .curves import (
    GraphFunction,
    GraphMeasure,
    MetricGraph,
    ddc,
    energy_graph,
    green,
    solve_poisson,
)
from .harness import CheckReport, GenConfig, SplitMix64, capacity_lower, run_suite
from .polyhedra import Polytope, clip, hull, lower_hull, minkowski_sum, volume
from .solver import (
    DiracProblem,
    Solution,
    SolverConfig,
    dual_objective,
    normalize,
    solve,
)
from .toric import (
    AtomicMeasure,
    NewtonPolytope,
    TestFunction,
    ToricPsh,
    envelope,
    energy,
    g_delta,
    integrate,
    lattice_envelope,
    ma_measure,
    max_combine,
    mixed_ma,
    newton_polytope,
    orthogonality_defect,
    psh_envelope,
    support_value,
)

__version__ = "0.1.0"
