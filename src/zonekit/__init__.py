"""zonekit: Zeeman-zone calculus with a desk-scale verification suite."""

from .algebra import ZonePolynomial, apply_rep, apply_zeeman, inner_product, norm, to_standard
from .extensions import (clifford_dimension, symmetrize_subzone, unprojected_coulomb_matrix,
                         zonal_coulomb_matrix)
from .padi import (SpinorField, anomalous_kernel, anomalous_zone_kernel, apply_padi,
                   eigenspinors, padi_square_residual, spin_matrices, spinor_inner_product,
                   spinor_norm)
from .params import PhysParams
from .path_measure import (PathDiscretization, cylinder_measure, probability_total_mass,
                           radon_nikodym_density)
from .propagators import (KernelGrid, QuadratureConvergenceError, SingularTimeError, evolve,
                          global_kernel, partition_function, partition_function_trace,
                          semigroup_residual, zonal_kernel, zonal_kernel_spectral)
from .special import laguerre
from .thermo import (average_energy, find_period_extrema, specific_heat, stable_spread,
                     tension)
from .zones import kernel_basis_residual, project_to_zone, zone_basis, zone_kernel

__version__ = "0.1.0"

__all__ = [
    "PhysParams", "ZonePolynomial", "SpinorField", "PathDiscretization", "KernelGrid",
    "SingularTimeError", "QuadratureConvergenceError", "laguerre",
    "inner_product", "norm", "to_standard", "apply_zeeman", "apply_rep",
    "zone_basis", "project_to_zone", "zone_kernel", "kernel_basis_residual",
    "global_kernel", "zonal_kernel", "zonal_kernel_spectral", "partition_function",
    "partition_function_trace", "evolve", "semigroup_residual",
    "average_energy", "specific_heat", "tension", "stable_spread", "find_period_extrema",
    "radon_nikodym_density", "cylinder_measure", "probability_total_mass",
    "spin_matrices", "apply_padi", "padi_square_residual", "eigenspinors",
    "anomalous_kernel", "anomalous_zone_kernel", "spinor_inner_product", "spinor_norm",
    "clifford_dimension", "symmetrize_subzone", "zonal_coulomb_matrix",
    "unprojected_coulomb_matrix",
]
