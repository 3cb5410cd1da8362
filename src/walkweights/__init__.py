"""Occupation times of absorbing random walks on vertex-weighted graphs.

The library computes expected visit counts three independent ways
(Green's-function formula, fixed-point solve, seeded Monte Carlo),
reconstructs vertex weights from target occupation times
(``reconstruct_weights``: Newton on the walkers' concave log-likelihood;
``steepest_descent``: the paper's projected descent),
and decides/constructs exact solutions on paths, complete graphs, and
pendant/twin-reducible graphs.
"""

from . import errors
from .graph_core import (
    GraphInstance,
    WeightAssignment,
    build_graph,
    derived_weights,
    instance_from_dict,
    instance_to_dict,
    laplacians,
    load_instance,
    save_instance,
    transition_matrix,
)
from .occupation import (
    OccupationVector,
    WalkTrace,
    empirical_occupation,
    expected_hitting_time,
    expected_occupation_fixed_point,
    expected_occupation_green,
    make_walk_trace,
    occupation_matrix,
)
from .reconstruct import (
    GradientReport,
    ReconstructionConfig,
    ReconstructionResult,
    complex_step_gradient,
    cost,
    expertise_correlation,
    green_derivative,
    occupation_gradient,
    reconstruct_weights,
    restrict_support,
    steepest_descent,
    weight_jacobians,
)
from .solvability import (
    PathDecomposition,
    RelintResult,
    detect_family,
    enumerate_proper_walks,
    hull_dimension,
    path_decompose,
    relint_membership,
    solve_complete,
    solve_path,
    solve_reducible,
)
from .spectral_green import (
    SpectralData,
    eigendecompose,
    greens_functions,
    pseudoinverse_derivative,
    spectral_data,
)

__version__ = "0.1.0"
