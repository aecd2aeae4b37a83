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

A chain is one (n, 2, 2) stack and every per-party quantity (lambda_j,
the measurements, the connector's factors) is one batched 2x2 operation
on it.  A plan applies a chain to psi twice: g psi gives both the
rescale and the target, and (x)_j N0_j psi the protocol's success branch;
the target is the only state a plan builds.

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
    fidelity,
    derive_rng,
    _apply_factors,
    _built,
    _det_rejected,
    _require_normalized,
    _require_seed,
    _vector_norm,
)
from .critical import scale_to_critical
from .stabilizer import _REPRESENTATIVE_TOL, _align, _require_budget

__all__ = [
    "ConversionPlan",
    "ProtocolRunStats",
    "pmax",
    "build_protocol",
    "simulate_protocol",
    "find_connector",
]

_MAX_TRIALS = int(np.iinfo(np.int64).max)  # the largest count Generator.binomial takes


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


@np.errstate(over="ignore", invalid="ignore")  # an overflowing g psi fails the norm test
def _rescaled_connector(psi: PureState, factors: np.ndarray,
                        scalar: complex) -> tuple[LocalOperatorChain, PureState]:
    """(g', g psi / ||g psi||) for g = scalar (x)_k factors_k, from one product g psi
    straight from the factor kernel; g' and the target are the only chain and state
    built, from arrays made here, with no check but one of g''s Gt rule: a factor
    tagged G passes its own rule with |det| below 1e-12 ||g||_F**2 (diag(1e7, 1e-7)).
    g' has 1/||g psi||^(1/n) in each factor, so g' psi is that unit-norm target."""
    if len(factors) != psi.n:
        raise ValueError(f"chain acts on {len(factors)} qubits, state has {psi.n}")
    out = scalar * _apply_factors(factors, psi.amplitudes)
    out_norm = _vector_norm(out)
    if not 0.0 < out_norm < np.inf:
        raise ValueError("g psi underflows to zero or is not finite; rescale the chain's factors")
    g = factors * (abs(scalar) / out_norm) ** (1.0 / len(factors))
    if _det_rejected(g, "Gt").any():
        raise ValueError("tag Gt requires invertible factors")
    return (_built(LocalOperatorChain, factors=g, group_tag="Gt", scalar=scalar / abs(scalar)),
            _built(PureState, n=psi.n, amplitudes=out / out_norm))


def pmax(psi: PureState, chain: LocalOperatorChain,
         trivial_stabilizer: bool | None = None) -> ConversionPlan:
    """Maximal conversion probability psi -> g psi / ||g psi||.

    The chain is rescaled internally, so multiplying it by any nonzero
    scalar leaves the result unchanged.  ``trivial_stabilizer`` is the
    caller's verdict on psi and only affects the reported optimality
    status, never the number.
    """
    _require_normalized(psi)
    g, target = _rescaled_connector(psi, chain.factors, chain.scalar)
    grams = np.transpose(g.factors.conj(), (0, 2, 1)) @ g.factors
    lam = np.linalg.eigvalsh(grams)[:, -1]
    p = float(1.0 / np.prod(lam))
    if trivial_stabilizer is None:
        status = "unknown"
    else:
        status = "exact_optimum" if trivial_stabilizer else "lower_bound"
    return ConversionPlan(g, lam, p, status, target)


def build_protocol(psi: PureState, chain: LocalOperatorChain,
                   trivial_stabilizer: bool | None = None) -> ConversionPlan:
    """Conversion plan with the per-party two-outcome measurements filled in."""
    plan = pmax(psi, chain, trivial_stabilizer)
    # lambda_j > 0: the top eigenvalue of g_j^dag g_j for an invertible g_j
    n0 = plan.connector.factors / np.sqrt(plan.per_party_lambda)[:, None, None]
    defect = np.eye(2) - n0.conj().swapaxes(-1, -2) @ n0
    w, v = np.linalg.eigh(0.5 * (defect + defect.conj().swapaxes(-1, -2)))
    n1 = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().swapaxes(-1, -2)
    plan.measurements = list(zip(n0, n1))
    return plan


def simulate_protocol(plan: ConversionPlan, psi: PureState, trials: int,
                      seed: int = 0) -> ProtocolRunStats:
    """Monte Carlo run of the one-round measurement protocol.

    Parties measure in sequence; outcome 0 for everyone is a success.
    Because a single outcome-1 result aborts the trial, the all-zero
    branch is one deterministic vector (x)_j N0_j psi, computed once as
    an array (no state is built); the success count is one seeded
    Binomial(trials, ||(x)_j N0_j psi||^2) draw: O(1) time and memory for
    any ``trials`` up to 2**63 - 1.  Zero trials compute nothing past the
    argument checks.
    """
    if plan.measurements is None:
        raise ValueError("plan has no measurements; use build_protocol")
    if not 0 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must be non-negative and at most 2**63 - 1, got {trials}")
    _require_seed(seed)
    if len(plan.measurements) != psi.n:
        raise ValueError(f"plan acts on {len(plan.measurements)} qubits, state has {psi.n}")
    _require_normalized(psi)
    if trials == 0:
        return ProtocolRunStats(0, 0, None, None, seed)
    branch = _apply_factors(np.stack([n0 for n0, _ in plan.measurements]), psi.amplitudes)
    # N0_j has operator norm 1, so no partial product is smaller than this norm
    nrm = _vector_norm(branch)
    p = min(1.0, nrm**2)  # local-unitary connectors: 1 + a few ulps
    successes = int(derive_rng(seed).binomial(trials, p))
    success_fid = None
    if successes:  # so nrm > 0
        target = plan.target
        success_fid = abs(np.vdot(target.amplitudes, branch)) ** 2 / (nrm * target.norm()) ** 2
    return ProtocolRunStats(trials, successes, successes / trials, success_fid, seed)


def find_connector(psi: PureState, phi: PureState, restarts: int = 32,
                   seed: int = 0) -> LocalOperatorChain | None:
    """Search for an invertible chain g with g psi = phi (up to phase).

    Both states are scaled to their critical representatives (tol 1e-11,
    as in the probe), an SU(2)^n chain u aligns them at a free phase by the
    symmetry search's Gauss-Newton polish from its starts (restarts >= 1
    and seed >= 0 are checked on entry), and g = (s_psi / s_phi) B^-1 u A
    is built from the scaling chains A, B and their scalars.  Success is certified by
    fidelity(g psi, phi) within 1e-8 of one; failure returns None and is
    inconclusive, not a proof of inequivalence.
    """
    _require_budget(restarts, seed)
    if psi.n != phi.n:
        raise ValueError(f"psi has {psi.n} qubits, phi has {phi.n}")
    _require_normalized(psi)
    _require_normalized(phi)
    scale_psi = scale_to_critical(psi, tol=_REPRESENTATIVE_TOL)
    scale_phi = scale_to_critical(phi, tol=_REPRESENTATIVE_TOL)
    for res, name in ((scale_psi, "psi"), (scale_phi, "phi")):
        if res.status != "converged":
            raise ValueError(f"no critical representative for {name} ({res.status})")
    factors, residuals, _ = _align(scale_psi.representative, scale_phi.representative,
                                   (1.0,), restarts, seed, special=False)
    u = factors[0, np.argmin(residuals[0])]
    a, b = scale_psi.accumulated_chain.factors, scale_phi.accumulated_chain.factors
    g, target = _rescaled_connector(psi, np.linalg.solve(b, u @ a),
                                    scale_psi.scalar / scale_phi.scalar)
    if fidelity(target, phi) < 1.0 - 1e-8:
        return None
    return g
