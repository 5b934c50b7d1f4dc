"""spinpaths: exact weighted lattice-path representations of pinned XXZ
chain ground states.

The combinatorial layer (polynomials, paths, weights, partition functions,
correlations) is exact integer/rational arithmetic; the quantum layer adds
a floating-point Hamiltonian oracle; the sampler draws paths from the
exact measure as an independent statistical witness.
"""

from .correlations import (CorrelationQuery, DegenerateEnsemble,
                           conditioned_partition, crossing_probability,
                           magnetization_profile)
from .lattice import EnsembleTooLarge, LatticePath, Point, enumerate_paths, sphere
from .partition import (backward_table, forward_table,
                        interface_closed_form, partition_bruteforce,
                        partition_dp, pinned_rep1, pinned_rep2,
                        pinned_via_convolution, pinning_distribution,
                        rec1_readings, translated_interface,
                        verify_average_representation, verify_rec2)
from .qpoly import LaurentPoly, NotDivisible, ZeroToNegativePower
from .sampler import (SamplerState, estimate_crossing, sample_path,
                      sample_paths, sample_step_matrix)
from .spin import (PinnedInstance, SpinConfig, amplitude, build_hamiltonian,
                   config_to_path_rep1, config_to_path_rep2, norm_squared,
                   sector_configs, verify_ground_state)
from .weights import (CustomTable, InterfaceXXZ, OutOfDomain, PinnedRep1,
                      PinnedRep2, scheme_from_name)

__version__ = "0.1.0"

__all__ = [
    "CorrelationQuery", "CustomTable", "DegenerateEnsemble",
    "EnsembleTooLarge", "InterfaceXXZ", "LatticePath", "LaurentPoly",
    "NotDivisible", "OutOfDomain", "PinnedInstance", "PinnedRep1",
    "PinnedRep2", "Point", "SamplerState", "SpinConfig", "ZeroToNegativePower",
    "amplitude", "backward_table", "build_hamiltonian", "conditioned_partition",
    "config_to_path_rep1", "config_to_path_rep2", "crossing_probability",
    "enumerate_paths", "estimate_crossing", "forward_table",
    "interface_closed_form", "magnetization_profile", "norm_squared",
    "partition_bruteforce", "partition_dp", "pinned_rep1", "pinned_rep2",
    "pinned_via_convolution", "pinning_distribution",
    "rec1_readings", "sample_path", "sample_paths", "sample_step_matrix",
    "scheme_from_name", "sector_configs", "sphere", "translated_interface",
    "verify_average_representation", "verify_ground_state", "verify_rec2",
]
