"""Driving a state to the critical representative of its orbit.

A state is critical when every single-qubit reduction is maximally
mixed.  Newton steps (for 4 <= n <= 8) and cyclic flattening sweeps
converge to the critical point of the orbit when one exists; orbits
without one (the null cone) reveal themselves through norm collapse.
"""

import numpy as np

from localsym import (
    PureState,
    criticality_report,
    make_w,
    min_norm_probe,
    sample_haar_state,
    scale_to_critical,
)

# A random 5-qubit state is almost surely in a polystable orbit.
psi = sample_haar_state(5, seed=42)
result = scale_to_critical(psi)
print("status:", result.status, "after", result.iterations, "iterations (Newton steps plus sweeps)")
report = criticality_report(result.representative)
print("max reduction deviation from I/2:", report.max_deviation)

# The norm trajectory never increases beyond rounding: each flattening
# step is the norm-optimal determinant-one move for its qubit, and a
# Newton step is kept only if it does not raise the norm.
traj = np.array(result.norm_trajectory)
print("norm trajectory monotone:", bool(np.all(np.diff(traj) <= 1e-14 * traj[:-1])))

# The W state's orbit has no critical point: the norm decays instead.
print("\nW_3:", scale_to_critical(make_w(3)).status)

# Critical states minimize the norm over their whole orbit, so random
# determinant-one chains can only push the norm up.
print("min norm over 100 random chains on the representative:",
      min_norm_probe(result.representative))
