"""The quantum cross-check: the amplitude vector is annihilated by the
sector Hamiltonian, up to floating-point residual.  The oracle applies H
without storing it; applying it to the identity gives the matrix.
"""

import numpy as np

from spinpaths import (SpinConfig, amplitude, build_hamiltonian,
                       config_to_path_rep1, config_to_path_rep2,
                       sector_configs, verify_ground_state)
from spinpaths.spin import ground_state_vector

L, K, N, q0 = 2, 2, 2, 0.5
oracle = build_hamiltonian(L, K, N, q0)
print(f"sector basis dimension: {oracle.dimension}")
print(f"residual |H psi| / |psi| = {verify_ground_state(oracle):.3e}")

eigenvalues = np.linalg.eigvalsh(oracle.apply(np.eye(oracle.dimension)))
print(f"smallest eigenvalues: {np.round(eigenvalues[:4], 6)} (sum of projectors)")

psi = ground_state_vector(oracle)
psi[0] += 0.05
print("perturbed vector residual:",
      f"{np.linalg.norm(oracle.apply(psi)) / np.linalg.norm(psi):.3e}")

print("\nspin configuration -> path, both representations:")
for config in sector_configs(1, 1, 1):
    amp = amplitude(config)
    print(f"  {config.alpha}  amplitude {str(amp):4s}"
          f"  rep1 {config_to_path_rep1(config).text():12s}"
          f"  rep2 {config_to_path_rep2(config).text()}")

config = SpinConfig.from_down_sites(2, 2, [-2, 1])
print("\ndown spins at -2 and 1:", "amplitude =", amplitude(config))
