"""Criticality testing and operator-scaling orbit normalization.

A state is critical when every single-qubit reduced density matrix
equals I/2.  ``scale_to_critical`` drives a state to the critical
representative of its orbit by cyclic Sinkhorn-style sweeps: each step
applies to one qubit the determinant-one positive matrix that flattens
that qubit's reduced density, which never increases the norm.  Orbits
without a critical point (the null cone) show up as monotone norm decay
below threshold, or as a rank-deficient reduced density.

The sweeps run on the raw amplitude vector: the reductions come from
``states._reduction``, which divides by the trace instead of
renormalizing, and the flattening factor of a 2x2 density has a closed
form, so no state object is built and no eigensolver runs until the
representative is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    PureState,
    LocalOperatorChain,
    apply_chain,
    apply_factor,
    sample_chain,
    derive_rng,
    _reduction,
    _require_normalized,
)

__all__ = ["CriticalityReport", "ScalingResult", "criticality_report",
           "scale_to_critical", "min_norm_probe"]

_NULL_CONE_NORM_FRACTION = 1e-6
_SINGULAR_RHO_EIG = 1e-14
_HALF_EYE = 0.5 * np.eye(2)


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


def _reductions(amp: np.ndarray, n: int) -> tuple[list[np.ndarray], list[float]]:
    """Unit-trace reductions of all n qubits and their Frobenius deviations from I/2."""
    rhos = [_reduction(amp, k) for k in range(n)]
    return rhos, [float(np.linalg.norm(rho - _HALF_EYE)) for rho in rhos]


def criticality_report(psi: PureState, tol: float = 1e-10) -> CriticalityReport:
    """Frobenius deviation of every single-qubit reduction from I/2."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    _require_normalized(psi)
    _, devs = _reductions(psi.amplitudes, psi.n)
    mx = max(devs)
    return CriticalityReport(devs, mx, tol, mx <= tol)


def _flattening_factor(rho: np.ndarray) -> np.ndarray | None:
    """Determinant-one positive g with g rho g ~ I/2; None if rho is singular.

    g = (rho / sqrt(d))**(-1/2) = ((s + sqrt(d)) I - rho) / (d**(1/4) sqrt(s + 2 sqrt(d)))
    for trace s and determinant d, by Cayley-Hamilton on 2x2 matrices.
    The smallest eigenvalue is d / lambda_max, which avoids the
    cancellation in s/2 - sqrt(s**2/4 - d); s**2/4 - d is summed as
    ((a - b)/2)**2 + |c|**2, which cannot round below zero.
    """
    a, b, c = rho[0, 0].real, rho[1, 1].real, rho[0, 1]
    s = a + b
    d = a * b - abs(c) ** 2
    lam_max = 0.5 * s + np.sqrt(0.25 * (a - b) ** 2 + abs(c) ** 2)
    if d / lam_max < _SINGULAR_RHO_EIG:
        return None
    root = np.sqrt(d)
    return ((s + root) * np.eye(2) - rho) / (np.sqrt(root) * np.sqrt(s + 2 * root))


def scale_to_critical(psi: PureState, tol: float = 1e-10,
                      max_iter: int = 10_000) -> ScalingResult:
    """Iterate toward the critical representative of the orbit of psi.

    Sweeps qubits cyclically, flattening one reduced density per step.
    Convergence is declared when all reductions of the running state,
    taken at unit trace, are within ``tol`` of I/2 in Frobenius norm.
    A run whose norm falls below 1e-6 of the initial norm, or that hits
    a numerically singular reduced density, is declared ``null_cone``.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    _require_normalized(psi)
    n = psi.n
    initial_norm = psi.norm()
    work = psi.amplitudes
    acc = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    trajectory = [initial_norm]

    def finish(status, sweeps):
        chain = LocalOperatorChain(acc, "G")
        if status == "converged":
            nrm = np.linalg.norm(work)
            rep, scalar = PureState(n, work / nrm), 1.0 / nrm
        else:
            rep, scalar = None, 1.0 + 0j
        return ScalingResult(rep, chain, complex(scalar), sweeps, status, trajectory)

    for sweep in range(max_iter + 1):
        rhos, devs = _reductions(work, n)
        if max(devs) <= tol:
            return finish("converged", sweep)
        if sweep == max_iter:
            return finish("max_iter", sweep)
        for k in range(n):
            # qubit 0 still sees the state the convergence check saw
            g = _flattening_factor(rhos[0] if k == 0 else _reduction(work, k))
            if g is None:
                return finish("null_cone", sweep)
            work = apply_factor(g, work, k)
            acc[k] = g @ acc[k]
        trajectory.append(float(np.linalg.norm(work)))
        if trajectory[-1] < _NULL_CONE_NORM_FRACTION * initial_norm:
            return finish("null_cone", sweep + 1)
    return finish("max_iter", max_iter)


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
