"""Occupation times of absorbing random walks on vertex-weighted graphs.

The library computes expected visit counts three independent ways
(Green's-function formula, fixed-point solve, seeded Monte Carlo),
reconstructs vertex weights from target occupation times
(``reconstruct_weights``: Newton on the walkers' concave log-likelihood;
``steepest_descent``: the paper's projected descent),
and decides/constructs exact solutions on paths, complete graphs, and
pendant/twin-reducible graphs.

The package exports the names that answer those questions.  Steps inside
them and test oracles stay in their modules: ``laplacians`` and
``instance_to_dict`` in ``graph_core``; ``WalkTrace`` and
``make_walk_trace`` in ``occupation``; ``weight_jacobians`` in
``reconstruct``; ``detect_family`` and ``enumerate_proper_walks`` in
``solvability``, which also keeps ``solve_path`` and ``solve_complete``:
``solve_reducible`` behind a path or complete-graph shape check.
"""

from . import errors
from .graph_core import (
    GraphInstance,
    WeightAssignment,
    build_graph,
    derived_weights,
    load_instance,
    save_instance,
    transition_matrix,
)
from .occupation import (
    OccupationVector,
    empirical_occupation,
    expected_hitting_time,
    expected_occupation_fixed_point,
    expected_occupation_green,
    occupation_matrix,
)
from .reconstruct import (
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
)
from .solvability import (
    RelintResult,
    hull_dimension,
    relint_membership,
    solve_reducible,
)
from .spectral_green import (
    SpectralData,
    pseudoinverse_derivative,
    spectral_data,
)

__version__ = "0.1.0"
