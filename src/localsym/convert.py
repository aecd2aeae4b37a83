"""Optimal stochastic conversion between locally connected states.

Given a normalized state psi and an invertible product chain g, the
maximal probability of converting psi to the normalized g psi by local
operations is 1/lambda_max(g'^dag g'), where g' is g rescaled so the
target is normalized.  The tensor-product structure factorizes the
eigenvalue: lambda_max = prod_j lambda_max(g_j'^dag g_j').  The
probability is achieved by a single round in which party j applies the
two-outcome measurement {g_j'/sqrt(lambda_j), sqrt(I - g_j'^dag
g_j'/lambda_j)} and the conversion succeeds when everyone reports
outcome 0.

For a state with trivial product-symmetry group the value is the exact
LOCC/SEP optimum; otherwise the connector is not unique and the same
number is only a lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    PureState,
    LocalOperatorChain,
    apply_chain,
    apply_factor,
    chain_product,
    fidelity,
    derive_rng,
    _require_normalized,
)
from .critical import scale_to_critical
from .stabilizer import _alternating_align

__all__ = [
    "ConversionPlan",
    "ProtocolRunStats",
    "pmax",
    "build_protocol",
    "simulate_protocol",
    "deterministic_convertible",
    "find_connector",
]

_SINGULAR_FACTOR_TOL = 1e-12


@dataclass
class ConversionPlan:
    connector: LocalOperatorChain  # rescaled so ||g psi|| = 1
    per_party_lambda: np.ndarray  # lambda_j = lambda_max(g_j^dag g_j)
    p_max: float
    optimality: str  # "exact_optimum" | "lower_bound" | "unknown"
    target: PureState
    measurements: list[tuple[np.ndarray, np.ndarray]] | None = None


@dataclass
class ProtocolRunStats:
    trials: int
    successes: int
    empirical_p: float | None  # None for an empty run
    mean_success_fidelity: float | None
    seed: int


def _rescaled_connector(psi: PureState, chain: LocalOperatorChain) -> LocalOperatorChain:
    """Distribute 1/||g psi||^(1/n) into each factor so the target is unit norm."""
    fac = np.asarray(chain.factors, dtype=complex)
    sq_norms = np.einsum("kij,kij->k", fac, fac.conj()).real
    dets = np.linalg.det(fac)
    if np.min(np.abs(dets)) < _SINGULAR_FACTOR_TOL * np.max(sq_norms):
        raise ValueError("connector has a numerically singular factor")
    out_norm = apply_chain(chain, psi).norm()
    if out_norm == 0.0:
        raise ValueError("g psi underflows to zero; rescale the chain's factors")
    scale = (abs(chain.scalar) / out_norm) ** (1.0 / chain.n)
    return LocalOperatorChain(fac * scale, "Gt",
                              scalar=chain.scalar / abs(chain.scalar))


def pmax(psi: PureState, chain: LocalOperatorChain,
         trivial_stabilizer: bool | None = None) -> ConversionPlan:
    """Maximal conversion probability psi -> g psi / ||g psi||.

    The chain is rescaled internally, so multiplying it by any nonzero
    scalar leaves the result unchanged.  ``trivial_stabilizer`` is the
    caller's verdict on psi and only affects the reported optimality
    status, never the number.
    """
    _require_normalized(psi)
    g = _rescaled_connector(psi, chain)
    grams = np.transpose(g.factors.conj(), (0, 2, 1)) @ g.factors
    lam = np.array([np.linalg.eigvalsh(m)[-1] for m in grams])
    p = float(1.0 / np.prod(lam))
    if trivial_stabilizer is None:
        status = "unknown"
    else:
        status = "exact_optimum" if trivial_stabilizer else "lower_bound"
    target = apply_chain(g, psi)
    return ConversionPlan(g, lam, p, status, target)


def build_protocol(psi: PureState, chain: LocalOperatorChain,
                   trivial_stabilizer: bool | None = None) -> ConversionPlan:
    """Conversion plan with the per-party two-outcome measurements filled in."""
    plan = pmax(psi, chain, trivial_stabilizer)
    measurements = []
    for g_j, lam_j in zip(plan.connector.factors, plan.per_party_lambda):
        if lam_j <= 0:
            raise RuntimeError("nonpositive lambda for an invertible factor")
        n0 = g_j / np.sqrt(lam_j)
        defect = np.eye(2) - n0.conj().T @ n0
        w, v = np.linalg.eigh(0.5 * (defect + defect.conj().T))
        n1 = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        measurements.append((n0, n1))
    plan.measurements = measurements
    return plan


def simulate_protocol(plan: ConversionPlan, psi: PureState, trials: int,
                      seed: int = 0) -> ProtocolRunStats:
    """Monte Carlo run of the one-round measurement protocol.

    Parties measure in sequence; outcome 0 for everyone is a success.
    Because a single outcome-1 result aborts the trial, the all-zero
    branch follows one deterministic state trajectory, so the per-party
    conditional success probabilities are computed once and the trials
    reduce to seeded Bernoulli draws.
    """
    if plan.measurements is None:
        raise ValueError("plan has no measurements; use build_protocol")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    _require_normalized(psi)
    n = psi.n
    cond_p = np.empty(n)
    amp = psi.amplitudes
    for j, (n0, _) in enumerate(plan.measurements):
        amp = apply_factor(n0, amp, j)
        nrm = np.linalg.norm(amp)
        cond_p[j] = nrm**2
        amp = amp / nrm
    final = PureState(n, complex(plan.connector.scalar) * amp)
    success_fid = fidelity(final, plan.target)

    if trials == 0:
        return ProtocolRunStats(0, 0, None, None, seed)
    rng = derive_rng(seed)
    draws = rng.random((trials, n)) < cond_p[None, :]
    successes = int(np.sum(np.all(draws, axis=1)))
    empirical = successes / trials
    return ProtocolRunStats(trials, successes, empirical,
                            success_fid if successes else None, seed)


def deterministic_convertible(psi: PureState, chain: LocalOperatorChain
                              ) -> tuple[bool, str]:
    """Whether the conversion succeeds with certainty, with a diagnosis.

    Valid as an if-and-only-if criterion when the caller has certified
    that psi has trivial product-symmetry group: the rescaled connector
    must then be factor-wise unitary, equivalently p_max = 1.
    """
    plan = pmax(psi, chain)
    devs = [np.linalg.norm(g.conj().T @ g - np.eye(2))
            for g in plan.connector.factors]
    unitary = max(devs) <= 1e-10
    if unitary:
        return True, "connector is factor-wise unitary (local-unitary conversion)"
    return False, (
        f"connector is not local-unitary (max factor deviation {max(devs):.2e}, "
        f"p_max = {plan.p_max:.6g})"
    )


def find_connector(psi: PureState, phi: PureState, restarts: int = 32,
                   seed: int = 0) -> LocalOperatorChain | None:
    """Search for an invertible chain g with g psi = phi (up to phase).

    Both states are driven to their critical representatives; a
    local-unitary alignment between the representatives is then sought
    numerically.  Success is certified by fidelity(g psi, phi) within
    1e-8 of one; failure returns None and is inconclusive, not a proof
    of inequivalence.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    _require_normalized(psi)
    _require_normalized(phi)
    scale_psi = scale_to_critical(psi)
    scale_phi = scale_to_critical(phi)
    for res, name in ((scale_psi, "psi"), (scale_phi, "phi")):
        if res.status != "converged":
            raise ValueError(f"no critical representative for {name} ({res.status})")
    factors, residuals = _alternating_align(
        scale_psi.representative, scale_phi.representative, (1.0,), restarts,
        seed, special=False)
    fac = factors[0, np.argmin(residuals[0])]
    u = LocalOperatorChain(fac / np.sqrt(np.linalg.det(fac))[:, None, None], "K")
    if fidelity(apply_chain(u, scale_psi.representative),
                scale_phi.representative) < 1.0 - 1e-8:
        return None
    # g = B^-1 u A with A, B the accumulated scaling chains (plus scalars)
    b_inv = LocalOperatorChain(np.linalg.inv(scale_phi.accumulated_chain.factors),
                               "G", scalar=1.0 / scale_phi.scalar)
    a = LocalOperatorChain(scale_psi.accumulated_chain.factors, "G",
                           scalar=scale_psi.scalar)
    g = chain_product(b_inv, chain_product(u, a))
    g = _rescaled_connector(psi, g)
    if fidelity(apply_chain(g, psi), phi) < 1.0 - 1e-8:
        return None
    return g
