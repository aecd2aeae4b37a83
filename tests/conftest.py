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


def count_calls(monkeypatch, call, name) -> int:
    """How often call() reaches the package kernel ``name`` (``_det_rejected``,
    ``_moments``, ...), through every module's binding of it."""
    from localsym import convert, critical, stabilizer, states

    calls = []
    for module in (states, critical, stabilizer, convert):
        if hasattr(module, name):
            monkeypatch.setattr(module, name,
                                lambda *a, f=getattr(module, name): calls.append(1) or f(*a))
    call()
    return len(calls)


def assert_passes_constructor(obj, *inputs):
    """obj, built without a check, passes its public constructor with the same bits;
    its array is read-only, complex128 and C-contiguous, and shares no memory with
    the caller's arrays ``inputs``."""
    from localsym import LocalOperatorChain

    if isinstance(obj, PureState):
        array, again = obj.amplitudes, PureState(obj.n, obj.amplitudes).amplitudes
    else:
        array = obj.factors
        again = LocalOperatorChain(array, obj.group_tag, obj.scalar).factors
    assert again.tobytes() == array.tobytes()
    assert array.dtype == np.complex128 and array.flags.c_contiguous
    assert not array.flags.writeable
    assert not any(np.shares_memory(array, x) for x in inputs)
