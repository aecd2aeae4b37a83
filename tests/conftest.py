import numpy as np
import pytest

from localsym import PureState, apply_chain, sample_chain, sample_haar_state

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_all(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


@pytest.fixture
def paulis():
    return {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def near_null_cone_state(n, seed):
    """A Haar-random local unitary of |0...0> + 1e-5 psi_Haar, normalized: its
    scaling chain grows large (a factor of Frobenius norm 400 at n = 3, seed 0),
    so its determinants carry rounding far above 1e-12 and, for n >= 9, the
    scaling ends ill-conditioned."""
    base = np.zeros(2**n, dtype=complex)
    base[0] = 1.0
    phi = PureState(n, base + 1e-5 * sample_haar_state(n, seed).amplitudes).normalized()
    return apply_chain(sample_chain(n, "K", 100 + seed), phi)
