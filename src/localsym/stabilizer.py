"""Continuous and discrete local-symmetry detection.

The continuous part measures the dimension of the Lie-algebra
stabilizer {X in Lie(G) : X|psi> = 0} from the singular values of the
tangent map X -> X|psi>.  The discrete part finds isolated symmetries
u psi = t psi in SU(2)^n, where every product-operator symmetry of a
critical state with zero-dimensional stabilizer lies.  Such a u rotates
the correlation tensors of qubits 1 and k, T_1k(u psi) = R_1 T_1k(psi)
R_k^T.  So if T_12 has distinct singular values ("pair_exact") the
tensors leave at most 4 candidates, up to factor signs; with one repeated
value ("pair_circle") they are critical points of two trigonometric
polynomials on two circles.  Either way an empty result is a complete
enumeration.  Otherwise the starts are Haar-random ("random"), and an
empty result is numerical evidence at the given budget, not a proof.
``_alternating_align`` (also used by ``convert``) polishes all starts,
and at odd n the phases t = 1, i, -i, as one batch of alternating
sweeps with closed-form 2x2 steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import (
    PureState,
    LocalOperatorChain,
    apply_chain,
    apply_factor,
    derive_rng,
    _PAULIS,
    _correlations,
    _ginibre,
    _haar_u2,
)
from .critical import criticality_report, scale_to_critical
from .invariants import f2, f4

__all__ = [
    "StabilizerProbe",
    "TrivialityVerdict",
    "lie_stabilizer_dim",
    "discrete_stabilizer_search",
    "phase_stabilizer_search",
    "gtilde_triviality_probe",
    "adjoint_closure_check",
]

# Basis of sl(2, C): raising, lowering, diagonal.  Integer entries keep
# the tangent matrix exactly reproducible.
SL2_BASIS = (
    np.array([[0, 1], [0, 0]], dtype=complex),
    np.array([[0, 0], [1, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_SVD_CUTOFF = 1e-8
_IDENTITY_EXCLUSION_RADIUS = 1e-3
_DEDUP_RADIUS = 1e-6
_CRITICAL_PRE_TOL = 1e-8
_REPRESENTATIVE_TOL = 1e-11  # scaling tol of the probe's and find_connector's representatives


@dataclass
class StabilizerProbe:
    """Findings of the stabilizer probes for one state."""

    lie_dim: int
    singular_values: np.ndarray  # 3n values, descending
    in_c: bool  # critical and zero-dimensional Lie stabilizer
    discrete_candidates: list[tuple[LocalOperatorChain, float]] = field(default_factory=list)
    gtilde_phase_hits: list[tuple[complex, LocalOperatorChain, float]] = field(default_factory=list)
    start_path: str | None = None  # "pair_exact" | "pair_circle" | "random"; None: no search ran


@dataclass
class TrivialityVerdict:
    """Outcome of the full product-symmetry triviality pipeline."""

    verdict: str  # "trivial" | "non_trivial" | "inconclusive"
    failed_gate: str | None
    probe: StabilizerProbe | None
    representative: PureState | None
    restarts: int
    tol: float


def _tangent_matrix(psi: PureState) -> np.ndarray:
    """2**n x 3n matrix whose columns are (I..X..I)|psi>, X in sl(2)."""
    basis = np.stack(SL2_BASIS)
    return np.concatenate([apply_factor(basis, psi.amplitudes, k)
                           for k in range(psi.n)]).T


def _lie_probe(psi: PureState, is_critical: bool) -> StabilizerProbe:
    """``lie_stabilizer_dim`` for a caller that knows whether psi is critical."""
    sv = np.linalg.svd(_tangent_matrix(psi), compute_uv=False)
    # pad to 3n entries: for 2**n < 3n the matrix is wide and the svd
    # reports only 2**n values, the rest of the kernel is structural
    sv = np.concatenate([sv, np.zeros(max(0, 3 * psi.n - sv.size))])
    smax = sv[0]
    rank = int(np.sum(sv > _SVD_CUTOFF * smax)) if smax > 0 else 0
    lie_dim = 3 * psi.n - rank
    return StabilizerProbe(lie_dim, sv, is_critical and lie_dim == 0)


def lie_stabilizer_dim(psi: PureState) -> StabilizerProbe:
    """Complex dimension of the Lie-algebra stabilizer of psi.

    Counts singular values of the tangent matrix at or below
    1e-8 sigma_max; the rank of the map and the reported dimension
    always add up to 3n.
    """
    return _lie_probe(psi, criticality_report(psi, tol=_CRITICAL_PRE_TOL).is_critical)


# ---------------------------------------------------------------------------
# compact-group search
# ---------------------------------------------------------------------------

_BATCH_BYTES = 1 << 24  # cap on the amplitudes of one batch of search rows
_GAP_TOL = 1e-6  # relative gap below which two singular values of T_12 count as equal
_COND_TOL = 1e6  # cond(T_1k) above which T_1k does not fix the rotation of qubit k
_CANDIDATE_OVERLAP = 1e-3  # 1 - overlap above which an exact or circle row cannot become a hit
_ROOT_RING = 1e-3  # ||z| - 1| below which a root of z^D f' is a candidate angle


def _su2_step(m: np.ndarray) -> np.ndarray:
    """u in SU(2) maximizing Re Tr(u m), for a stack of 2x2 matrices m.

    With u = [[a, b], [-conj(b), conj(a)]], Re Tr(u m) = Re(a p + b q)
    for p = m00 + conj(m11) and q = m10 - conj(m01), so the maximum over
    |a|^2 + |b|^2 = 1 is at (a, b) = conj(p, q) / sqrt(|p|^2 + |q|^2).
    """
    p = m[..., 0, 0] + m[..., 1, 1].conj()
    q = m[..., 1, 0] - m[..., 0, 1].conj()
    # scale by the larger modulus in real arithmetic, exact even for subnormals
    big = np.maximum(abs(p), abs(q))
    big = np.where(big == 0.0, 1.0, big)
    p, q = p.real / big + 1j * (p.imag / big), q.real / big + 1j * (q.imag / big)
    p = np.where((p == 0.0) & (q == 0.0), 1.0, p)  # m = 0: take the identity
    nrm = np.hypot(abs(p), abs(q))
    a, b = p.conj() / nrm, q.conj() / nrm
    return np.stack([a, b, -b.conj(), a.conj()], -1).reshape(a.shape + (2, 2))


def _u2_step(m: np.ndarray) -> np.ndarray:
    """u in U(2) maximizing Re Tr(u m), for a stack of 2x2 matrices m.

    The phase h = exp(-i arg(det m) / 2) makes det(h m) real and
    non-negative, so the U(2) maximizer for h m lies in SU(2) and the
    one for m is h times it: u = h _su2_step(h m).
    """
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    h = np.exp(-0.5j * np.angle(det))[..., None, None]
    return h * _su2_step(h * m)


def _sweep_rows(psi: np.ndarray, target: np.ndarray, phases: np.ndarray,
                factors: np.ndarray, step) -> tuple[np.ndarray, np.ndarray]:
    """Maximize Re <t_r target|u_r psi> for every row r by alternating sweeps.

    Returns ``factors`` (rows, n, 2, 2), updated in place, and the
    residuals ||u_r psi - t_r target||.  chi = u psi is held, so updating
    qubit k costs one overlap, C = u_k^dag <target|chi>_k, and one apply.
    A row stops below 1e-14, also tested before the first sweep (a row
    starting on a hit keeps its start), or after 8 stalled sweeps.
    """
    rows, n = factors.shape[:2]
    chi = np.broadcast_to(psi, (rows, psi.size))
    for k in range(n):
        chi = apply_factor(factors[:, k], chi, k)
    want = phases[:, None] * target
    residual = np.linalg.norm(chi - want, axis=1)
    live = np.flatnonzero(residual >= 1e-14)
    if not live.size:
        return factors, residual
    # conj(target) with qubit k last: <target|chi> on qubit k is one matmul
    bra = [target.conj().reshape(2**k, 2, -1).transpose(0, 2, 1).reshape(-1, 2)
           for k in range(n)]
    chi, want, fac = chi[live], want[live], factors[live]
    tbar = phases[live].conj()[:, None, None]
    prev, stalls = np.full(live.size, np.inf), np.zeros(live.size, dtype=int)
    for sweep in range(1000):
        for k in range(n):
            x = chi.reshape(live.size, 2**k, 2, -1).transpose(0, 2, 1, 3)
            old_dag = fac[:, k].conj().swapaxes(-1, -2)
            u = step(tbar * (old_dag @ (x.reshape(live.size, 2, -1) @ bra[k])))
            chi = apply_factor(u @ old_dag, chi, k)
            fac[:, k] = u
        res = np.linalg.norm(chi - want, axis=1)
        stalls = np.where(res > prev * (1.0 - 1e-3), stalls + 1, 0)
        done = (res < 1e-14) | (stalls >= 8) | (sweep == 999)
        factors[live[done]] = fac[done]
        residual[live[done]] = res[done]
        keep = ~done
        if not keep.any():
            break
        live, fac, chi, want, tbar = live[keep], fac[keep], chi[keep], want[keep], tbar[keep]
        prev, stalls = res[keep], stalls[keep]
    return factors, residual


def _su2_lift(r: np.ndarray) -> np.ndarray:
    """u in SU(2), up to sign, with u sigma_b u^dag = sum_a r[a, b] sigma_a
    for a stack of rotations r: u = q0 I - i q.sigma for the unit
    quaternion q, read off the column of 4 q q^T (linear in r) with the
    largest diagonal entry."""
    tr = np.trace(r, axis1=-2, axis2=-1)[..., None, None]
    w = np.stack([r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0],
                  r[..., 1, 0] - r[..., 0, 1]], -1)
    qq = np.concatenate([np.concatenate([1 + tr, w[..., None, :]], -1), np.concatenate(
        [w[..., None], r + r.swapaxes(-1, -2) + (1 - tr) * np.eye(3)], -1)], -2)
    col = np.argmax(np.diagonal(qq, axis1=-2, axis2=-1), -1)[..., None, None]
    q = np.take_along_axis(qq, col, -1)[..., 0]
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    return q[..., :1, None] * np.eye(2) - 1j * np.einsum("...a,aij->...ij", q[..., 1:], _PAULIS)


def _critical_angles(samples: np.ndarray) -> np.ndarray:
    """Critical points of the real trigonometric polynomial f of degree
    D = len(samples) / 2 - 1 sampled at 2D + 2 equispaced angles from 0:
    the roots z = exp(i theta) of the degree-2D polynomial z^D f'(theta),
    each polished by Newton steps on f'.  Outer coefficients of f' below
    1e-12 max(1, max|f|), rounding noise of a lower true degree that would
    push roots off the unit circle, are dropped.  A constant f gives theta = 0."""
    k = np.arange(1 - samples.size // 2, samples.size // 2)  # -D..D
    d1 = 1j * k * np.fft.fft(samples)[k] / samples.size  # coefficients of f'
    top = max(abs(k[abs(d1) >= 1e-12 * max(1.0, np.max(abs(samples)))]), default=0)
    k, d1 = k[abs(k) <= top], d1[abs(k) <= top]
    z = np.roots(d1[::-1])
    theta = np.angle(z[abs(abs(z) - 1.0) < _ROOT_RING])
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            wave = np.exp(1j * np.outer(theta, k))
            theta = theta - (wave @ d1).real / (wave @ (1j * k * d1)).real
    theta = theta[np.isfinite(theta)]
    return theta if theta.size else np.zeros(1)


def _overlaps(rows: np.ndarray, psi: PureState, target: PureState) -> np.ndarray:
    """<target|u_r psi> / (||psi|| ||target||) for rows u_r, in chunks of _BATCH_BYTES."""
    chunk = max(1, _BATCH_BYTES // (16 * psi.dim))
    ov = np.empty(len(rows), dtype=complex)
    for lo in range(0, len(rows), chunk):
        chi = psi.amplitudes
        for k in range(psi.n):
            chi = apply_factor(rows[lo:lo + chunk, k], chi, k)
        ov[lo:lo + chunk] = chi @ target.amplitudes.conj()
    return ov / (psi.norm() * target.norm())


def _starts(psi: PureState, target: PureState, restarts: int, seed: int,
            special: bool) -> tuple[np.ndarray, str]:
    """Start rows (rows, n, 2, 2) aligning psi with target, and their path.

    With T_12(psi) = A S B^T and T_12(target) = A' S B'^T, R_1 = A' P A^T
    for an orthogonal P commuting with S, and R_k = T_1k(target)^T R_1
    T_1k(psi)^-T.  Exact path: P is one of the 4 sign diagonals of
    determinant det(A A').  Circle path: P = diag(eps, O(theta)) on the
    repeated plane, eps = +-1, and R_k is affine in (cos theta, sin theta),
    so h = sum_k ||R_k^T R_k - I||^2 (zero at a symmetry) and, if h = 0,
    q = |<target|u psi>|^2 (one at a symmetry) have degree D = max(n, 4):
    the rows are their critical points.  Random row r: derive_rng(seed, r).
    """
    src = _correlations(psi.amplitudes, psi.n)
    a, s, _ = np.linalg.svd(src)  # of every T_1k; T_12 is index 0
    equal = -np.diff(s[0]) <= _GAP_TOL * s[0, 0]
    if equal.all() or not np.all(s[:, -1] * _COND_TOL > s[:, 0]):
        return _haar_u2(np.stack([_ginibre(derive_rng(seed, r), (psi.n,))
                                  for r in range(restarts)]), special), "random"
    path = "pair_circle" if equal.any() else "pair_exact"
    dst = src if target is psi else _correlations(target.amplitudes, target.n)
    a, s, a2 = a[0], s[0], a[0] if target is psi else np.linalg.svd(dst[0])[0]
    det = np.linalg.det(a) * np.linalg.det(a2)

    def rotations(p: np.ndarray) -> np.ndarray:  # (rows, n, 3, 3): R_1, R_2, ..., R_n
        r1 = a2 @ p @ a.T
        rk = dst.swapaxes(-1, -2) @ r1[:, None] @ np.linalg.inv(src).swapaxes(-1, -2)
        return np.concatenate([r1[:, None], rk], 1)

    if path == "pair_exact":
        signs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        return _su2_lift(rotations(det * signs[..., None] * np.eye(3))), path
    i, j, m = (0, 1, 2) if s[0] - s[1] < s[1] - s[2] else (1, 2, 0)  # i, j: the plane

    def circle(theta: np.ndarray, eps: np.ndarray) -> np.ndarray:
        c, sn, flip = np.cos(theta), np.sin(theta), eps * det  # flip -1: a reflection
        p = np.zeros((theta.size, 3, 3))
        p[:, [m, i, j, i, j], [m, i, i, j, j]] = np.stack([eps, c, sn, -sn * flip, c * flip], 1)
        return rotations(p)

    size = 2 * max(psi.n, 4) + 2
    r = circle(np.tile(2 * np.pi * np.arange(size) / size, 2), np.repeat([1.0, -1.0], size))
    h = np.sum(abs(r.swapaxes(-1, -2) @ r - np.eye(3)) ** 2, axis=(1, 2, 3))
    q = abs(_overlaps(_su2_lift(r), psi, target)) ** 2
    theta = [_critical_angles(f[lo:lo + size]) for lo in (0, size) for f in (h, q)]
    eps = np.repeat([1.0, 1.0, -1.0, -1.0], [t.size for t in theta])
    return _su2_lift(circle(np.concatenate(theta), eps)), path


def _alternating_align(psi: PureState, target: PureState, phases, restarts: int,
                       seed: int, special: bool) -> tuple[np.ndarray, np.ndarray, str]:
    """Maximize Re <t target|u psi> over SU(2)^n or U(2)^n from ``_starts``.

    Every phase starts from the same rows.  On the exact and circle paths
    they are every candidate, and a row that does not start as a hit up
    to _CANDIDATE_OVERLAP at its phase keeps its start and residual inf.
    Returns factors (len(phases), rows, n, 2, 2), residuals ||u psi - t
    target|| (len(phases), rows) and the path.  Rows are independent, so
    chunks of ``_BATCH_BYTES`` change no row.  Callers check restarts >= 1.
    """
    phases = np.asarray(phases, dtype=complex)
    start, path = _starts(psi, target, restarts, seed, special)
    factors = np.tile(start, (phases.size, 1, 1, 1))
    row_phases = np.repeat(phases, len(start))
    live = np.arange(factors.shape[0])
    if path != "random":
        ov = np.tile(_overlaps(start, psi, target), phases.size)
        # U(2)^n absorbs any phase, SU(2)^n a sign: -u_1 is in SU(2)
        fit = abs((row_phases.conj() * ov).real) if special else abs(ov)
        live = live[fit > 1.0 - _CANDIDATE_OVERLAP]
    residuals = np.full(factors.shape[0], np.inf)
    chunk = max(1, _BATCH_BYTES // (16 * psi.dim))
    step = _su2_step if special else _u2_step
    for lo in range(0, live.size, chunk):
        rows = live[lo:lo + chunk]
        factors[rows], residuals[rows] = _sweep_rows(
            psi.amplitudes, target.amplitudes, row_phases[rows], factors[rows], step)
    return (factors.reshape(phases.size, len(start), psi.n, 2, 2),
            residuals.reshape(phases.size, len(start)), path)


def _chain_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max over factors of the sign-aligned Frobenius distance."""
    return float(np.max(np.minimum(np.linalg.norm(a - b, axis=(-2, -1)),
                                   np.linalg.norm(a + b, axis=(-2, -1)))))


def _require_budget(restarts: int, tol: float) -> None:
    """No restart, or tol <= 0, keeps no hit whatever psi is: an empty non-search."""
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if tol <= 0:
        raise ValueError(f"search tolerance must be positive, got {tol}")


def _search(psi: PureState, phases, restarts: int, seed: int, tol: float
            ) -> tuple[list[tuple[complex, LocalOperatorChain, float]], str]:
    """Verified hits (t, u, ||u psi - t psi||) below tol in phase order, and the path.

    Hits near the identity are dropped for t = 1, near-duplicates are
    merged per phase, and every kept chain is re-verified.
    """
    all_factors, all_residuals, path = _alternating_align(psi, psi, phases, restarts,
                                                          seed, special=True)
    hits: list[tuple[complex, LocalOperatorChain, float]] = []
    for t, factors, residuals in zip(phases, all_factors, all_residuals):
        exclude_identity = abs(t - 1.0) <= 1e-12
        found: list[LocalOperatorChain] = []
        for fac, residual in zip(factors, residuals):
            if residual >= tol:
                continue
            if exclude_identity and _chain_distance(fac, np.eye(2)) <= _IDENTITY_EXCLUSION_RADIUS:
                continue
            if any(_chain_distance(fac, kept.factors) < _DEDUP_RADIUS for kept in found):
                continue
            chain = LocalOperatorChain(fac, "K")
            check = np.linalg.norm(apply_chain(chain, psi).amplitudes - t * psi.amplitudes)
            if check <= tol:
                found.append(chain)
                hits.append((t, chain, float(check)))
    return hits, path


def discrete_stabilizer_search(psi: PureState, restarts: int = 32, seed: int = 0,
                               tol: float = 1e-8) -> list[tuple[LocalOperatorChain, float]]:
    """Non-identity unitary chains u with ||u psi - psi|| below tol.

    Requires a critical state with zero-dimensional Lie stabilizer, so
    every product-operator symmetry is isolated and unitary.  Chains
    within the sign-aligned identity-exclusion radius are dropped;
    near-duplicates are merged.
    """
    return phase_stabilizer_search(psi, 1.0, restarts, seed, tol)


def phase_stabilizer_search(psi: PureState, t: complex, restarts: int = 32,
                            seed: int = 0, tol: float = 1e-8
                            ) -> list[tuple[LocalOperatorChain, float]]:
    """Unitary chains u with ||u psi - t psi|| below tol, |t| = 1.

    A hit exhibits a product symmetry of psi up to the global phase t,
    i.e. a GL-chain symmetry after relocating the scalar into one tensor
    factor.  With t = 1 this is the discrete search, under the same
    preconditions (a ValueError names the one that fails).
    """
    if abs(abs(t) - 1.0) > 1e-12:
        raise ValueError(f"phase must have unit modulus, got |t| = {abs(t)}")
    _require_budget(restarts, tol)
    crit = criticality_report(psi, tol=_CRITICAL_PRE_TOL)
    if not crit.is_critical:
        raise ValueError("precondition failed: criticality "
                         f"(max deviation {crit.max_deviation:.2e})")
    lie_dim = _lie_probe(psi, is_critical=True).lie_dim
    if lie_dim != 0:
        raise ValueError(f"precondition failed: lie_dim (got {lie_dim}, need 0)")
    return [(chain, res) for _, chain, res in _search(psi, (t,), restarts, seed, tol)[0]]


def adjoint_closure_check(psi: PureState, chain: LocalOperatorChain) -> tuple[float, float]:
    """Residuals (||g psi - psi||, ||g^dag psi - psi||) on a critical state.

    The stabilizer of a critical state is closed under the adjoint, so a
    genuine symmetry witness keeps both residuals small.
    """
    crit = criticality_report(psi, tol=_CRITICAL_PRE_TOL)
    if not crit.is_critical:
        raise ValueError("adjoint closure check needs a critical state")
    fwd = np.linalg.norm(apply_chain(chain, psi).amplitudes - psi.amplitudes)
    adj = LocalOperatorChain(chain.factors.conj().swapaxes(-1, -2), chain.group_tag,
                             np.conj(chain.scalar))
    bwd = np.linalg.norm(apply_chain(adj, psi).amplitudes - psi.amplitudes)
    return float(fwd), float(bwd)


def gtilde_triviality_probe(psi: PureState, restarts: int = 32,
                            seed: int = 0, tol: float = 1e-8) -> TrivialityVerdict:
    """Full pipeline deciding whether psi has any product-operator symmetry.

    Gates: (1) scale to the critical representative (null-cone states
    are inconclusive); (2) Lie stabilizer must be zero-dimensional;
    (3) the compact-group search must come up empty; (4) a nonzero
    degree-2 invariant (even n) pins the admissible global phase to
    +-1 so step 3 suffices; for odd n a nonzero degree-4 invariant pins
    the phase to fourth roots of unity and the +-i cases are probed
    directly.  Witness findings are reported on the critical
    representative, whose stabilizer is conjugate to that of psi.  On
    start paths "pair_exact" and "pair_circle" step 3 enumerates every
    candidate, so a "trivial" verdict does not depend on the budget or
    the seed.
    """
    _require_budget(restarts, tol)
    scaling = scale_to_critical(psi, tol=_REPRESENTATIVE_TOL)
    if scaling.status != "converged":
        return TrivialityVerdict("inconclusive", f"critical_scaling:{scaling.status}",
                                 None, None, restarts, tol)
    rep = scaling.representative
    # converged at 1e-11, so critical at the 1e-8 of the search preconditions
    probe = _lie_probe(rep, is_critical=True)

    def verdict(outcome: str, gate: str | None) -> TrivialityVerdict:
        return TrivialityVerdict(outcome, gate, probe, rep, restarts, tol)

    if probe.lie_dim != 0:
        return verdict("non_trivial", "lie_dim")
    # odd n: the searches at t = 1, i, -i run as one batch; gates keep their order
    phases = (1.0,) if rep.n % 2 == 0 else (1.0, 1j, -1j)
    hits, probe.start_path = _search(rep, phases, restarts, seed, tol)
    probe.discrete_candidates = [(chain, res) for t, chain, res in hits if t == 1.0]
    if probe.discrete_candidates:
        return verdict("non_trivial", "discrete_search")
    if rep.n % 2 == 0:
        if abs(f2(rep).value) <= 1e-10:
            return verdict("inconclusive", "f2_zero")
        return verdict("trivial", None)
    probe.gtilde_phase_hits = hits
    if probe.gtilde_phase_hits:
        return verdict("non_trivial", "phase_search")
    if abs(f4(rep).value) <= 1e-10:
        return verdict("inconclusive", "f4_zero")
    return verdict("trivial", None)
