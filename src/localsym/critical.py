"""Criticality testing and operator-scaling orbit normalization.

A state is critical when every single-qubit reduced density matrix
equals I/2.  ``scale_to_critical`` drives a state to the critical
representative of its orbit.  For 4 <= n <= 8 each iteration tries a
damped Newton step on log ||E(x) psi||**2 over Hermitian chains
E(x) = (x)_k exp(x_k . sigma / 2), which converges quadratically near
the critical point; otherwise, and whenever the step fails or would
raise the norm, it runs a cyclic Sinkhorn-style sweep: each step applies
to one qubit the determinant-one positive matrix that flattens that
qubit's reduced density, which never increases the norm.  Orbits
without a critical point (the null cone) show up as monotone norm decay
below threshold, or as a rank-deficient reduced density.

Both hold the amplitudes as a (2, 2**(n-1)) matrix t whose rows index
one qubit, read its density [[a, c], [c*, b]] as the moments of one 2x2
Gram matrix (``states._moments``) and roll the next qubit into the rows,
by ``t.T.reshape(2, -1)`` or, with a factor, by ``states._apply_next``.
Deviation from I/2 and flattening factor are closed forms in the
moments, so no eigensolver runs; the convergence check stops at the
first qubit outside tolerance.  The Newton step reads its gradient and
Hessian off ``states._pauli_images``, as do the Lie probe and the T_1k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    PureState,
    LocalOperatorChain,
    apply_chain,
    sample_chain,
    derive_rng,
    _UNIT_AND_PAULIS,
    _apply_factors,
    _apply_next,
    _moments,
    _pauli_images,
    _require_normalized,
)

__all__ = ["CriticalityReport", "ScalingResult", "criticality_report",
           "scale_to_critical", "min_norm_probe"]

_NULL_CONE_NORM_FRACTION = 1e-6
_SINGULAR_RHO_EIG = 1e-14
# Newton steps run for 4 <= n <= 8: below, a generic state's stabilizer makes
# the Hessian singular at the critical point and a few sweeps converge; above,
# the O(n**2 2**n) Hessian costs more than the sweeps it saves
_NEWTON_MIN_QUBITS = 4
_NEWTON_MAX_QUBITS = 8
# relative norm rise a Newton step may show from rounding alone and be kept
_NEWTON_NORM_SLACK = 1e-14


@dataclass(frozen=True)
class CriticalityReport:
    per_qubit_deviation: list[float]
    max_deviation: float
    tolerance: float
    is_critical: bool


@dataclass(frozen=True)
class ScalingResult:
    representative: PureState | None
    accumulated_chain: LocalOperatorChain
    scalar: complex
    iterations: int
    status: str  # "converged" | "null_cone" | "max_iter"
    norm_trajectory: list[float]


def _deviations(t: np.ndarray, n: int):
    """Lazily, for qubit 0, 1, ... of t as each is rolled into the rows: the
    moments (a, b, c) and deviation ||rho / s - I/2||_F of rho = [[a, c], [c*, b]]."""
    for _ in range(n):
        a, b, c = moments = _moments(t)
        yield moments, math.sqrt(0.5 * (a - b) ** 2 + 2 * abs(c) ** 2) / (a + b)
        t = t.T.reshape(2, -1)


def criticality_report(psi: PureState, tol: float = 1e-10) -> CriticalityReport:
    """Frobenius deviation of every single-qubit reduction from I/2."""
    if not 0 < tol < math.inf:  # also true for nan
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    _require_normalized(psi)
    devs = [dev for _, dev in _deviations(psi.amplitudes.reshape(2, -1), psi.n)]
    mx = max(devs)
    return CriticalityReport(devs, mx, tol, mx <= tol)


def _flattening_factor(a: float, b: float, c: complex) -> np.ndarray | None:
    """Determinant-one positive g with g rho g ~ I/2 for rho = [[a, c], [c*, b]]
    of any trace; None if rho is singular.

    g = (rho / sqrt(d))**(-1/2) = ((s + sqrt(d)) I - rho) / (d**(1/4) sqrt(s + 2 sqrt(d)))
    for trace s and determinant d, by Cayley-Hamilton on 2x2 matrices.
    The smallest eigenvalue is d / lambda_max, which avoids the
    cancellation in s/2 - sqrt(s**2/4 - d); s**2/4 - d is summed as
    ((a - b)/2)**2 + |c|**2, which cannot round below zero.
    """
    s = a + b
    d = a * b - abs(c) ** 2
    lam_max = 0.5 * s + math.sqrt(0.25 * (a - b) ** 2 + abs(c) ** 2)
    if d / lam_max < _SINGULAR_RHO_EIG * s:  # lambda_min of the unit-trace rho
        return None
    root = math.sqrt(d)
    scale = 1.0 / (math.sqrt(root) * math.sqrt(s + 2 * root))
    return np.array([[(b + root) * scale, -c * scale],
                     [-c.conjugate() * scale, (a + root) * scale]])


def _newton_factors(t: np.ndarray, sq_norm: float) -> np.ndarray | None:
    """The factors of E(x) = (x)_k exp(x_k . sigma / 2) for a Newton step x on
    log ||E(x) phi||**2 at phi = t, of squared norm sq_norm; None if the
    solve fails or is not finite.

    The gradient is the Bloch vectors r_ka = <sigma_a on qubit k> and the
    Hessian H = C - r r^T, for C the real Gram matrix of the 3n Pauli images
    (I_3 blocks on its diagonal, the correlation tensors T_jk off it).  The
    step x = -H^-1 r is scaled to max_k |x_k| <= 1, so no factor overflows
    near the null cone, where H turns singular.  Each factor
    cosh(|x_k|/2) I + sinh(|x_k|/2) x_k . sigma / |x_k| is Hermitian,
    positive and of determinant one.
    """
    images = _pauli_images(t.reshape(-1)).view(float)
    r = images @ t.reshape(-1).view(float) / sq_norm
    try:
        x = np.linalg.solve(images @ images.T / sq_norm - r[:, None] * r, -r).reshape(-1, 3)
    except np.linalg.LinAlgError:
        return None
    length = np.hypot(np.hypot(x[:, 0], x[:, 1]), x[:, 2])  # no squares to overflow
    top = length.max()
    if not top < math.inf:  # also true for nan
        return None
    if top > 1.0:
        x, length = x / top, length / top
    half = 0.5 * length
    coefs = np.empty((len(x), 4))
    coefs[:, 0] = np.cosh(half)
    coefs[:, 1:] = x * (np.sinh(half) / np.where(length > 0, length, 1.0))[:, None]
    return (coefs @ _UNIT_AND_PAULIS).reshape(-1, 2, 2)


def scale_to_critical(psi: PureState, tol: float = 1e-10,
                      max_iter: int = 10_000) -> ScalingResult:
    """Iterate toward the critical representative of the orbit of psi.

    Each iteration is one Newton step or one sweep; ``iterations`` and
    ``max_iter`` count both.  For 4 <= n <= 8 the Newton step of
    ``_newton_factors`` is kept when the norm rises by at most 1e-14 relative
    (rounding); a failed, non-finite or rejected step gives a sweep instead,
    and outside that range every iteration is a sweep, flattening one reduced
    density per step with qubits taken cyclically.  Both land on the same
    unitary orbit with the same minimal norm, but not on the same point of
    it.  Convergence is declared when all reductions of the running state,
    taken at unit trace, are within ``tol`` of I/2 in Frobenius norm, checked
    from qubit 0 (whose moments the sweep's first step and the Newton step
    reuse) to the first that is not.  The trajectory holds the unit-norm
    check's norm, then one norm per iteration, the Newton acceptance test's
    or the sweep's.  A run whose norm falls below 1e-6 of the initial norm,
    or whose sweep hits a numerically singular reduced density, is declared
    ``null_cone``.  Each factor is applied by ``states._apply_next``, one
    matmul that also rolls the next qubit into the rows; an iteration's
    factors enter the chain in one batched matmul, at a null-cone exit within
    a sweep only those already applied.
    """
    if not 0 < tol < math.inf:  # also true for nan
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    initial_norm = _require_normalized(psi)
    n = psi.n
    t = psi.amplitudes.reshape(2, -1)
    acc = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    steps = np.empty_like(acc)
    trajectory = [initial_norm]

    def finish(status, iterations):
        chain = LocalOperatorChain(acc, "G")
        if status == "converged":
            nrm = np.linalg.norm(t)
            rep, scalar = PureState(n, t.reshape(-1) / nrm), 1.0 / nrm
        else:
            rep, scalar = None, 1.0 + 0j
        return ScalingResult(rep, chain, complex(scalar), iterations, status, trajectory)

    for it in range(max_iter + 1):
        devs = _deviations(t, n)
        first, dev = next(devs)
        if dev <= tol and all(d <= tol for _, d in devs):
            return finish("converged", it)
        if it == max_iter:
            return finish("max_iter", it)
        newton = None
        if _NEWTON_MIN_QUBITS <= n <= _NEWTON_MAX_QUBITS:
            newton = _newton_factors(t, first[0] + first[1])
        if newton is not None:
            u = _apply_factors(newton, t.reshape(-1)).reshape(2, -1)
            if (nrm := np.linalg.norm(u)) <= trajectory[-1] * (1 + _NEWTON_NORM_SLACK):
                t, steps[:] = u, newton
            else:
                newton = None
        if newton is None:
            for k in range(n):
                # qubit 0 still sees the state the convergence check saw
                g = _flattening_factor(*(first if k == 0 else _moments(t)))
                if g is None:
                    acc[:k] = steps[:k] @ acc[:k]
                    return finish("null_cone", it)
                steps[k] = g
                t = _apply_next(g, t)
            nrm = np.linalg.norm(t)
        acc = steps @ acc
        trajectory.append(float(nrm))
        if trajectory[-1] < _NULL_CONE_NORM_FRACTION * initial_norm:
            return finish("null_cone", it + 1)


def min_norm_probe(phi: PureState, trials: int = 100, seed: int = 0) -> float:
    """Minimum of ||g phi|| over random unit-determinant chains.

    For a critical phi this never drops below ||phi|| (Kempf-Ness).
    """
    report = criticality_report(phi, tol=1e-10)
    if not report.is_critical:
        raise ValueError(
            f"min_norm_probe needs a critical state (max deviation {report.max_deviation:.2e})"
        )
    best = phi.norm()
    for t in range(trials):
        g = sample_chain(phi.n, "G", derive_rng(seed, t))
        best = min(best, apply_chain(g, phi).norm())
    return best
