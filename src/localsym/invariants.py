"""SL-invariant polynomials of degree 2 and 4 for multiqubit states.

Both polynomials are bilinear forms (plain transpose, no conjugation)
built from tensor powers of sigma_y.  The sigma_y tensor power is never
materialized; it is applied by bit-complementing indices with phase
bookkeeping (i per |0>->|1>, -i per |1>->|0>), which costs O(2**n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import PureState, sample_chain, apply_chain, derive_rng

__all__ = ["SlipValue", "f2", "f4", "check_invariance"]


@dataclass(frozen=True)
class SlipValue:
    """Value of an SL-invariant polynomial.

    ``defined`` is False when the polynomial vanishes identically for
    the input's qubit parity (degree 2 with odd n); the value is then 0.
    """

    value: complex
    degree: int
    defined: bool = True

    def __post_init__(self):
        if self.degree not in (2, 4):
            raise ValueError(f"degree must be 2 or 4, got {self.degree}")
        if not self.defined and self.value != 0:
            raise ValueError("undefined SLIP value must be 0")


def _sigma_y_power_apply(vec: np.ndarray, m: int) -> np.ndarray:
    """sigma_y^(x)m applied to a length-2**m vector.

    sigma_y sends |0> -> i|1> and |1> -> -i|0>, so basis index j maps to
    its bit complement with phase i**m * (-1)**popcount(j).
    """
    signs = np.ones(1)
    for _ in range(m):  # one more bit: the upper half flips parity
        signs = np.concatenate([signs, -signs])
    return (1j**m) * (signs * vec)[::-1]


def _bilinear(u: np.ndarray, v: np.ndarray, m: int) -> complex:
    """u^T sigma_y^(x)m v (no conjugation)."""
    return complex(u @ _sigma_y_power_apply(v, m))


def f2(psi: PureState) -> SlipValue:
    """Degree-2 SLIP: the bilinear form psi^T sigma_y^(x)n psi.

    Vanishes identically for odd n; reported with ``defined=False``.
    Homogeneous of degree 2, so unnormalized inputs are fine.
    """
    if psi.n % 2 == 1:
        return SlipValue(0.0, 2, defined=False)
    return SlipValue(_bilinear(psi.amplitudes, psi.amplitudes, psi.n), 2)


def f4(psi: PureState) -> SlipValue:
    """Degree-4 SLIP for an odd number of qubits.

    Splits |psi> = |0>|phi_0> + |1>|phi_1> on the first qubit, forms the
    2x2 matrix of sigma_y bilinear forms between the halves, and returns
    its determinant.
    """
    if psi.n % 2 == 0:
        raise ValueError("the degree-4 polynomial is defined for odd qubit counts only")
    if psi.n < 3:
        raise ValueError("need at least 3 qubits")
    phi0, phi1 = psi.amplitudes.reshape(2, -1)
    m = psi.n - 1
    b00 = _bilinear(phi0, phi0, m)
    b01 = _bilinear(phi0, phi1, m)
    b10 = _bilinear(phi1, phi0, m)
    b11 = _bilinear(phi1, phi1, m)
    return SlipValue(b00 * b11 - b01 * b10, 4)


def check_invariance(poly_id: str, psi: PureState, trials: int = 50,
                     seed: int = 0) -> float:
    """Max relative deviation of f over random unit-determinant chains.

    Returns max over trials of |f(g psi) - f(psi)| / max(1, |f(psi)|).
    """
    poly = {"f2": f2, "f4": f4}[poly_id]
    base = poly(psi)
    if not base.defined:
        raise ValueError(f"{poly_id} vanishes identically for n={psi.n}")
    scale = max(1.0, abs(base.value))
    worst = 0.0
    for t in range(trials):
        g = sample_chain(psi.n, "G", derive_rng(seed, t))
        dev = abs(poly(apply_chain(g, psi)).value - base.value) / scale
        worst = max(worst, dev)
    return worst
