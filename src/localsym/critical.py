"""Criticality testing and operator-scaling orbit normalization.

A state is critical when every single-qubit reduced density matrix
equals I/2.  ``scale_to_critical`` drives a state to the critical
representative of its orbit by cyclic Sinkhorn-style sweeps: each step
applies to one qubit the determinant-one positive matrix that flattens
that qubit's reduced density, which never increases the norm.  Orbits
without a critical point (the null cone) show up as monotone norm decay
below threshold, or as a rank-deficient reduced density.

Both hold the amplitudes as a (2, 2**(n-1)) matrix t whose rows index
one qubit, read its density [[a, c], [c*, b]] as the moments of one 2x2
Gram matrix (``states._moments``) and roll the next qubit into the rows
with ``t.T.reshape(2, -1)``.  Deviation from I/2 and flattening factor
are closed forms in the moments, so no eigensolver runs, and the
scaling's convergence check stops at the first qubit outside tolerance.
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
    _moments,
    _require_normalized,
)

__all__ = ["CriticalityReport", "ScalingResult", "criticality_report",
           "scale_to_critical", "min_norm_probe"]

_NULL_CONE_NORM_FRACTION = 1e-6
_SINGULAR_RHO_EIG = 1e-14


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
    if tol <= 0:
        raise ValueError("tolerance must be positive")
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


def scale_to_critical(psi: PureState, tol: float = 1e-10,
                      max_iter: int = 10_000) -> ScalingResult:
    """Iterate toward the critical representative of the orbit of psi.

    Sweeps qubits cyclically, flattening one reduced density per step.
    Convergence is declared when all reductions of the running state,
    taken at unit trace, are within ``tol`` of I/2 in Frobenius norm,
    checked from qubit 0 (whose moments step 0 reuses) to the first that is not.
    A run whose norm falls below 1e-6 of the initial norm, or that hits
    a numerically singular reduced density, is declared ``null_cone``.
    Each step is one matmul that applies the factor and rolls the next
    qubit into the rows; a sweep's factors enter the chain in one batched
    matmul, at a null-cone exit within it only those already applied.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    _require_normalized(psi)
    n = psi.n
    initial_norm = psi.norm()
    t = psi.amplitudes.reshape(2, -1)
    acc = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    steps = np.empty_like(acc)
    trajectory = [initial_norm]

    def finish(status, sweeps):
        chain = LocalOperatorChain(acc, "G")
        if status == "converged":
            nrm = np.linalg.norm(t)
            rep, scalar = PureState(n, t.reshape(-1) / nrm), 1.0 / nrm
        else:
            rep, scalar = None, 1.0 + 0j
        return ScalingResult(rep, chain, complex(scalar), sweeps, status, trajectory)

    for sweep in range(max_iter + 1):
        devs = _deviations(t, n)
        first, dev = next(devs)
        if dev <= tol and all(d <= tol for _, d in devs):
            return finish("converged", sweep)
        if sweep == max_iter:
            return finish("max_iter", sweep)
        for k in range(n):
            # qubit 0 still sees the state the convergence check saw
            g = _flattening_factor(*(first if k == 0 else _moments(t)))
            if g is None:
                acc[:k] = steps[:k] @ acc[:k]
                return finish("null_cone", sweep)
            steps[k] = g
            t = (t.T @ g.T).reshape(2, -1)
        acc = steps @ acc
        trajectory.append(float(np.linalg.norm(t)))
        if trajectory[-1] < _NULL_CONE_NORM_FRACTION * initial_norm:
            return finish("null_cone", sweep + 1)


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
