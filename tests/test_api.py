"""The package's public names are pinned, so an export is a deliberate
change to this list."""

import types

import walkweights as ww

PUBLIC = {
    # graph_core
    "GraphInstance", "WeightAssignment", "build_graph", "derived_weights",
    "load_instance", "save_instance", "transition_matrix",
    # occupation
    "OccupationVector", "empirical_occupation", "expected_hitting_time",
    "expected_occupation_fixed_point", "expected_occupation_green",
    "occupation_matrix",
    # reconstruct
    "ReconstructionConfig", "ReconstructionResult", "complex_step_gradient",
    "cost", "expertise_correlation", "green_derivative",
    "occupation_gradient", "reconstruct_weights", "restrict_support",
    "steepest_descent",
    # solvability
    "RelintResult", "hull_dimension", "relint_membership", "solve_reducible",
    # spectral_green
    "SpectralData", "pseudoinverse_derivative", "spectral_data",
}


def test_public_names_are_pinned():
    exported = {
        name for name, value in vars(ww).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC
    assert len(PUBLIC) == 30
