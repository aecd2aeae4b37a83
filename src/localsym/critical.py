"""Criticality testing and operator-scaling orbit normalization.

A state is critical when every single-qubit reduced density matrix
equals I/2.  ``scale_to_critical`` drives a state to the critical
representative of its orbit by cyclic Sinkhorn-style sweeps: each step
applies to one qubit the determinant-one positive matrix that flattens
that qubit's reduced density, which never increases the norm.  Orbits
without a critical point (the null cone) show up as monotone norm decay
below threshold, or as a rank-deficient reduced density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    PureState,
    LocalOperatorChain,
    apply_chain,
    apply_factor,
    reduced_density,
    sample_chain,
    derive_rng,
)

__all__ = ["CriticalityReport", "ScalingResult", "criticality_report",
           "scale_to_critical", "min_norm_probe"]

_NORM_PRE_TOL = 1e-9
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


def criticality_report(psi: PureState, tol: float = 1e-10) -> CriticalityReport:
    """Frobenius deviation of every single-qubit reduction from I/2."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if abs(psi.norm() - 1.0) > _NORM_PRE_TOL:
        raise ValueError(f"state must be normalized, got norm {psi.norm()!r}")
    half_eye = 0.5 * np.eye(2)
    devs = [float(np.linalg.norm(reduced_density(psi, k) - half_eye))
            for k in range(1, psi.n + 1)]
    mx = max(devs)
    return CriticalityReport(devs, mx, tol, mx <= tol)


def _flattening_factor(rho: np.ndarray) -> tuple[np.ndarray, float]:
    """Determinant-one positive g with g rho g ~ I/2, plus min eigenvalue.

    g = (rho / sqrt(det rho))**(-1/2), computed from the 2x2 eigensystem.
    """
    w, v = np.linalg.eigh(rho)
    if w[0] < _SINGULAR_RHO_EIG:
        return np.eye(2), float(w[0])
    scaled = w / np.sqrt(w[0] * w[1])
    g = (v * (1.0 / np.sqrt(scaled))) @ v.conj().T
    return g, float(w[0])


def scale_to_critical(psi: PureState, tol: float = 1e-10,
                      max_iter: int = 10_000) -> ScalingResult:
    """Iterate toward the critical representative of the orbit of psi.

    Sweeps qubits cyclically, flattening one reduced density per step.
    Convergence is declared when all reductions of the running
    (renormalized) state are within ``tol`` of I/2 in Frobenius norm.
    A run whose norm falls below 1e-6 of the initial norm, or that hits
    a numerically singular reduced density, is declared ``null_cone``.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if abs(psi.norm() - 1.0) > _NORM_PRE_TOL:
        raise ValueError(f"state must be normalized, got norm {psi.norm()!r}")
    n = psi.n
    initial_norm = psi.norm()
    half_eye = 0.5 * np.eye(2)
    work = psi
    acc = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    trajectory = [work.norm()]

    def finish(status, sweeps):
        chain = LocalOperatorChain(acc, "G")
        if status == "converged":
            rep = work.normalized()
            scalar = 1.0 / work.norm()
        else:
            rep, scalar = None, 1.0 + 0j
        return ScalingResult(rep, chain, complex(scalar), sweeps, status, trajectory)

    for sweep in range(max_iter + 1):
        cur = work.normalized()
        devs = [np.linalg.norm(reduced_density(cur, k) - half_eye)
                for k in range(1, n + 1)]
        if max(devs) <= tol:
            return finish("converged", sweep)
        if sweep == max_iter:
            return finish("max_iter", sweep)
        for k in range(1, n + 1):
            rho = reduced_density(work.normalized(), k)
            g, min_eig = _flattening_factor(rho)
            if min_eig < _SINGULAR_RHO_EIG:
                return finish("null_cone", sweep)
            work = PureState(n, apply_factor(g, work.amplitudes, k - 1))
            acc[k - 1] = g @ acc[k - 1]
        trajectory.append(work.norm())
        if work.norm() < _NULL_CONE_NORM_FRACTION * initial_norm:
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
