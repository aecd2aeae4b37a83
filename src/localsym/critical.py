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
below threshold, or as a rank-deficient reduced density; a converged run
whose representative has drifted from scalar * A psi ends ill-conditioned.

Both hold the amplitudes as a (2, 2**(n-1)) matrix t whose rows index
one qubit, read its density [[a, c], [c*, b]] as the moments of one 2x2
Gram matrix (``states._moments``) and roll the next qubit into the rows,
by ``t.T.reshape(2, -1)`` or, with a factor, by ``states._apply_next``.
Deviation from I/2 and flattening factor are closed forms in the
moments, so no eigensolver runs; outside the Newton range the convergence
check stops at the first qubit outside tolerance.  In the Newton range one
``states._gram_and_bloch`` per iterate gives its Gram matrix C / ||t||**2,
its Bloch vectors and ||t||**2: the check reads every qubit's deviation off
the Bloch vectors (``_bloch_deviation``), the Newton step its gradient and
Hessian, the trajectory ||t||, and a converged representative keeps the Gram
matrix and Bloch vectors as its Pauli gather, the property's own definition,
which the Lie probe, the commutant, the T_1k and the search's criticality
precondition read.  The chain and the representative are built from the loop's
own arrays (``states._built``): the determinant repair in ``finish`` is the
chain's one determinant pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    PureState,
    LocalOperatorChain,
    sample_chain,
    derive_rng,
    _UNIT_AND_PAULIS,
    _apply_factors,
    _apply_next,
    _built,
    _det_rejected,
    _gram_and_bloch,
    _moments,
    _require_normalized,
    _vector_norm,
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
# largest ||scalar A psi - representative|| of a converged run whose
# representative is still psi's, as bench/checks.check_scaling requires
_FORWARD_TOL = 1e-10


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
    # "converged" | "null_cone" | "max_iter" | "ill_conditioned" (converged, but
    # the representative is more than 1e-10 from scalar * A psi, so not psi's)
    status: str
    norm_trajectory: list[float]


def _bloch_deviation(bloch: np.ndarray) -> float:
    """max_k ||rho_k - I/2||_F = max_k |r_k| / sqrt(2) for rho_k = (I + r_k . sigma) / 2,
    from the Bloch vectors r of ``_gram_and_bloch``: the deviation of the reductions."""
    return math.sqrt(0.5 * (bloch * bloch).reshape(-1, 3).sum(1).max())


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


def _newton_factors(gram: np.ndarray, r: np.ndarray) -> np.ndarray | None:
    """The factors of E(x) = (x)_k exp(x_k . sigma / 2) for a Newton step x on
    log ||E(x) phi||**2, from the Gram matrix and Bloch vectors of phi that
    ``_gram_and_bloch`` returns; None if the solve fails or is not finite.

    The gradient is the Bloch vectors r_ka = <sigma_a on qubit k> and the
    Hessian H = C - r r^T, for C the real Gram matrix of the 3n Pauli images
    over ||phi||**2 (I_3 blocks on its diagonal, the correlation tensors T_jk
    off it).  The step x = -H^-1 r is scaled to max_k |x_k| <= 1, so no factor
    overflows near the null cone, where H turns singular.  Each factor
    cosh(|x_k|/2) I + sinh(|x_k|/2) x_k . sigma / |x_k| is Hermitian,
    positive and of determinant one.
    """
    try:
        x = np.linalg.solve(gram - r[:, None] * r, -r).reshape(-1, 3)
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
    taken at unit trace, are within ``tol`` of I/2 in Frobenius norm: in the
    Newton range |r_k| / sqrt(2) for the Bloch vectors r of the iterate's one
    gather (``_gram_and_bloch``), which a converged representative keeps as its
    own (its ``pauli_gram`` and Bloch vectors); outside it checked from qubit 0 (whose
    moments the sweep's first step reuses) to the first that is not.  The
    trajectory holds the unit-norm check's norm, then one norm per iteration:
    the sweep's, or an accepted Newton step's sqrt(C[0, 0]) from the gather
    of the stepped iterate, which the acceptance test and the next check read.
    A run whose norm falls below 1e-6 of the initial norm, or whose sweep hits
    a numerically singular reduced density, is declared ``null_cone``.  Each
    factor is applied by ``states._apply_next``, one product that also rolls
    the next qubit into the rows; an iteration's factors enter the chain in
    one batched matmul, at a null-cone exit within a sweep only those already
    applied.  The chain A is returned with tag G: accumulated factors whose
    determinant has drifted past the relative rule of ``states._det_rejected``
    (hundreds of sweeps drift it by about 1e-12 relative) are divided by the
    root of their determinant, and all others are kept bit for bit.  A
    converged run is then checked against one product of A with psi: if
    ||scalar A psi - representative|| > 1e-10, the representative is not psi's
    (near the null cone, where A grows large) and the run ends
    ``ill_conditioned``, with no representative and scalar 1.
    """
    if not 0 < tol < math.inf:  # also true for nan
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    initial_norm = _require_normalized(psi)
    n = psi.n
    newton_range = _NEWTON_MIN_QUBITS <= n <= _NEWTON_MAX_QUBITS
    t = psi.amplitudes.reshape(2, -1)
    acc = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    steps = np.empty_like(acc)
    trajectory = [initial_norm]
    gathered = None  # in the Newton range, _gram_and_bloch of t

    def finish(status, iterations):
        if (bad := _det_rejected(acc, "G")).any():  # the one det pass: det drifts over sweeps
            acc[bad] /= np.sqrt(np.linalg.det(acc[bad]))[:, None, None]
        chain = _built(LocalOperatorChain, factors=acc, group_tag="G")
        rep, scalar = None, 1.0
        if status == "converged":
            nrm = np.linalg.norm(t)
            amp = t.reshape(-1) / nrm
            direct = _apply_factors(chain.factors, psi.amplitudes) / nrm
            if np.linalg.norm(direct - amp) > _FORWARD_TOL:
                status = "ill_conditioned"
            else:
                # C / ||t||**2 and r, as the properties would compute them
                gather = {} if gathered is None else {"_gather": gathered[:2]}
                rep, scalar = _built(PureState, n=n, amplitudes=amp, **gather), 1.0 / nrm
        return ScalingResult(rep, chain, complex(scalar), iterations, status, trajectory)

    for it in range(max_iter + 1):
        if newton_range:
            gathered = gathered or _gram_and_bloch(t)
            converged = _bloch_deviation(gathered[1]) <= tol
        else:
            devs = _deviations(t, n)
            first, dev = next(devs)
            converged = dev <= tol and all(d <= tol for _, d in devs)
        if converged:
            return finish("converged", it)
        if it == max_iter:
            return finish("max_iter", it)
        newton = _newton_factors(*gathered[:2]) if newton_range else None
        gathered = None
        if newton is not None:
            u = _apply_factors(newton, t.reshape(-1)).reshape(2, -1)
            stepped = _gram_and_bloch(u)
            if (nrm := math.sqrt(stepped[2])) <= trajectory[-1] * (1 + _NEWTON_NORM_SLACK):
                t, steps[:], gathered = u, newton, stepped
            else:
                newton = None
        if newton is None:
            for k in range(n):
                # outside the Newton range qubit 0 still sees the state the check saw
                g = _flattening_factor(*(first if k == 0 and not newton_range else _moments(t)))
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
        best = min(best, _vector_norm(_apply_factors(g.factors, phi.amplitudes)))
    return best
