"""Continuous and discrete local-symmetry detection.

The continuous part measures the dimension of the Lie-algebra
stabilizer {X in Lie(G) : X|psi> = 0} from the singular values of the
tangent map X -> X|psi>, whose columns are the Pauli images
``states._pauli_images`` (square roots of their Gram matrix's eigenvalues,
with their SVD as the fallback).  The discrete part finds isolated symmetries
u psi = t psi in SU(2)^n, where every product-operator symmetry of a
critical state with zero-dimensional stabilizer lies.  Such a u rotates
the correlation tensors of every pair of qubits, T_jk(u psi) = R_j T_jk(psi)
R_k^T, at any phase t.  So if the only solutions B of B_j T_jk = T_jk B_k are
the multiples of (I, ..., I), the commutant of the pair tensors is
one-dimensional, every R_k = I and u = +-I: one Cholesky of the equations'
normal matrix certifies psi trivial with no search ("commutant"; Singer's
rotation synchronization).  Otherwise the search runs on the tensors of
qubits 1 and k.  If T_12 has distinct singular values ("pair_exact") the
tensors leave at most 4 candidates, up to factor signs; with one repeated
value ("pair_circle") they are critical points of two trigonometric
polynomials on two circles.  Either way an empty result is a complete
enumeration.  Otherwise the starts are Haar-random ("random"), and an
empty result is numerical evidence at the given budget, not a proof.
``_align`` (also used by ``convert``) applies all starts, SU(2)^n rows, once,
for all phases t = 1, i, -i at odd n or a free t (absorbing each factor's U(1)),
and polishes the rows off a hit as one batch of Gauss-Newton steps; ``_search``
keeps the residual ``_align`` returns and, as hits a small sign-aligned distance
apart have phases equal up to sign, drops +-I and merges near-duplicates at any t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import (
    PureState,
    LocalOperatorChain,
    derive_rng,
    _UNIT_AND_PAULIS,
    _apply_factors,
    _built,
    _correlations,
    _ginibre,
    _haar_u2,
    _pauli_images,
    _require_normalized,
    _require_seed,
)
from .critical import _bloch_deviation, criticality_report, scale_to_critical
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
    # "commutant" (certified with no search) | "pair_exact" | "pair_circle" | "random";
    # None: the Lie gate stopped the probe
    start_path: str | None = None


@dataclass
class TrivialityVerdict:
    """Outcome of the full product-symmetry triviality pipeline."""

    verdict: str  # "trivial" | "non_trivial" | "inconclusive"
    failed_gate: str | None
    probe: StabilizerProbe | None
    representative: PureState | None
    restarts: int
    tol: float


def _lie_probe(psi: PureState, is_critical: bool) -> StabilizerProbe:
    """``lie_stabilizer_dim`` for a caller that knows whether psi is critical.  For
    critical psi the Pauli images P (sl(2, C)**n) have P P^dag = C, psi's ``pauli_gram``
    (diagonal blocks I_3 + i eps_abc <sigma_c> = I_3, Hermitian products off them), so
    sigma = sqrt(eig C).  The SVD of P decides when lambda_min < 1e-8 lambda_max (lambda
    cannot resolve a 1e-8 sigma cutoff), if psi is not known critical or 2**n < 3n."""
    use_gram = is_critical and psi.dim >= 3 * psi.n
    lam = np.linalg.eigvalsh(psi.pauli_gram)[::-1] if use_gram else [0.0]
    if lam[-1] >= 1e-8 * lam[0] > 0:
        sv = np.sqrt(lam)
    else:  # pad to 3n: for 2**n < 3n the svd has 2**n values, the rest is structural
        sv = np.linalg.svd(_pauli_images(psi.amplitudes), compute_uv=False)
        sv = np.concatenate([sv, np.zeros(max(0, 3 * psi.n - sv.size))])
    smax = sv[0]
    rank = int(np.sum(sv > _SVD_CUTOFF * smax)) if smax > 0 else 0
    lie_dim = 3 * psi.n - rank
    return StabilizerProbe(lie_dim, sv, is_critical and lie_dim == 0)


def lie_stabilizer_dim(psi: PureState) -> StabilizerProbe:
    """Complex dimension of the Lie-algebra stabilizer of psi.

    Counts singular values of the tangent map, the 3n Pauli images, at
    or below 1e-8 sigma_max; rank and dimension always add up to 3n.
    They come from the images' Gram eigenvalues, with the SVD as the
    fallback (``_lie_probe``).  The Pauli basis is orthonormal, so they are
    invariant under local unitaries and qubit permutations.
    """
    return _lie_probe(psi, criticality_report(psi, tol=_CRITICAL_PRE_TOL).is_critical)


# ---------------------------------------------------------------------------
# commutant certificate
# ---------------------------------------------------------------------------

# Certify dim A = 1 when every direction of M but v has Rayleigh quotient above
# _COMMUTANT_TAU tr M.  On 2000 Haar states of the census workload (seed 301,
# rounds 0-999, n = 5 and 6) the null eigenvalue was at most 1e-16 tr M and
# lambda_2 at least 1.0e-3 tr M; on every planted state with an exact symmetry
# that reaches the check, lambda_2 was at most 4e-17 tr M.  A near-symmetry with
# residual delta has lambda_2 = O(n**2 delta**2), far below 1e-8 tr M at the
# search tol 1e-8, so it fails the check and goes on to the search.  M is
# quadratic in the T_jk, so an error dC in the Gram matrix moves its eigenvalues
# by O(n ||dC||) (Weyl): about 1e-16 for rounding.
_COMMUTANT_TAU = 1e-8


def _commutant_matrix(gram: np.ndarray) -> np.ndarray:
    """The (9n, 9n) normal matrix M of B_j T_jk = T_jk B_k over ordered pairs j != k,
    rows and columns (qubit, vec B), with T_jk the off-diagonal (3, 3) blocks of a
    ``pauli_gram``: blocks -2 T_jk (x) T_jk off the diagonal and
    I (x) S_j + S_j (x) I on it, S_j = sum_k T_jk T_jk^T (block j of C**2, less I).
    Built from the T_jk alone, M is zero when they are, M v = 0 for
    v = (vec I_3)**n, and tr M = 6 sum ||T_jk||**2 = 6 (||C||_F**2 - 3n)."""
    n = len(gram) // 3
    t = gram.reshape(n, 3, n, 3).copy()
    np.einsum("jajb->jab", t)[...] = 0.0  # a writable view of the blocks C_jj
    u = t.reshape(n, 3, 3 * n)
    s = u @ u.transpose(0, 2, 1)
    m = -2.0 * t[:, :, None, :, :, None] * t[:, None, :, :, None, :]  # (j, a, b, k, c, d)
    np.einsum("jabjad->jabd", m)[...] += s[:, None]  # I (x) S_j
    np.einsum("jabjcb->jabc", m)[...] += s[:, :, None]  # S_j (x) I
    return m.reshape(9 * n, 9 * n)


def _commutant_is_scalar(gram: np.ndarray) -> bool:
    """Whether the solutions B of B_j T_jk = T_jk B_k are only the multiples of
    (I, ..., I): one Cholesky of M + c v v^T - _COMMUTANT_TAU tr(M) I succeeds,
    with c |v|**2 = tr(M) / 9n lifting M's null vector v to M's mean eigenvalue."""
    m = _commutant_matrix(gram)
    n, trace = len(m) // 9, m.trace()
    m.reshape(n, 9, n, 9)[:, ::4, :, ::4] += trace / (27 * n * n)  # entries 0, 4, 8 of vec I_3
    m.flat[::9 * n + 1] -= _COMMUTANT_TAU * trace
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


# ---------------------------------------------------------------------------
# compact-group search
# ---------------------------------------------------------------------------

_BATCH_BYTES = 1 << 24  # cap on the arrays of one batch of search rows
_GAP_TOL = 1e-6  # relative gap below which two singular values of T_12 count as equal
_COND_TOL = 1e6  # cond(T_1k) above which T_1k does not fix the rotation of qubit k
_CANDIDATE_OVERLAP = 1e-3  # 1 - overlap above which an exact or circle row cannot become a hit
_ROOT_RING = 1e-3  # ||z| - 1| below which a root of z^D f' is a candidate angle


def _su2(q: np.ndarray) -> np.ndarray:
    """q0 I - i q.sigma in SU(2) for a stack of unit quaternions q (..., 4)."""
    u = q[..., :1] * _UNIT_AND_PAULIS[0] - 1j * (q[..., 1:] @ _UNIT_AND_PAULIS[1:])
    return u.reshape(q.shape[:-1] + (2, 2))


def _polish_rows(psi: np.ndarray, target: np.ndarray, phases: np.ndarray | None,
                 factors: np.ndarray, chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ||u_r psi - t_r target|| for every row r by Gauss-Newton steps
    from the rows u_r of ``factors`` (rows, n, 2, 2), with chi = u_r psi.

    Returns ``factors``, updated in place, and the residuals.  Under u <- (x)_k
    exp(-i x_k.sigma / 2) u, chi moves by -(i/2) x.P for P its Pauli images, so
    a step is the least-squares x = -2 C^+ g, g = Re P^dag(i r), C the real Gram
    matrix of P and r = chi - t target, with model residual ||r||^2 + x.g / 2,
    scaled to max_k |x_k| <= pi/2.  With phases None, t_r is re-read each step as
    the phase of <target|chi> (i chi is orthogonal to every Pauli image), and as C
    and g do not change under chi -> e^(i alpha) chi, SU(2)^n steps fit over U(2)^n.
    A row stops below 1e-14, after 8 steps without a 1e-3 relative fall below its
    best residual (steps are not monotone: rounding noise at the floor must not
    reset the count), after a step whose model could not lower it by 1e-3
    (stationary: r nearly orthogonal to P, as at a connector's floor), or at 1000
    steps.
    """
    free = phases is None
    t = np.exp(1j * np.angle(chi @ target.conj())) if free else phases
    live, fac, n = np.arange(len(factors)), factors, factors.shape[1]
    residual = np.empty(len(factors))
    best, stalls = np.full(live.size, np.inf), np.zeros(live.size, dtype=int)
    for step in range(1000):
        images = _pauli_images(chi).view(float)
        ir = (1j * (chi - t[:, None] * target)).view(float)
        grad = images @ ir[..., None]
        x = -2.0 * np.linalg.pinv(images @ images.swapaxes(-1, -2), hermitian=True) @ grad
        flat = -0.5 * np.sum(x * grad, axis=(1, 2)) <= (1 - (1 - 1e-3) ** 2) * np.sum(ir * ir, 1)
        x = x.reshape(-1, n, 3)
        length = np.linalg.norm(x, axis=-1, keepdims=True)
        cap = np.maximum(1.0, length.max(axis=1, keepdims=True) / (0.5 * np.pi))
        x, half = x / cap, 0.5 * length / cap
        # q = (cos |x|/2, sin(|x|/2) x/|x|), finite at x = 0
        fac = _su2(np.concatenate([np.cos(half), 0.5 * np.sinc(half / np.pi) * x], -1)) @ fac
        chi = _apply_factors(fac, psi)
        if free:
            t = np.exp(1j * np.angle(chi @ target.conj()))
        res = np.linalg.norm(chi - t[:, None] * target, axis=1)
        stalls = np.where(res < best * (1.0 - 1e-3), 0, stalls + 1)
        best = np.minimum(best, res)
        done = (res < 1e-14) | (stalls >= 8) | flat | (step == 999)
        factors[live[done]] = fac[done]
        residual[live[done]] = res[done]
        keep = ~done
        if not keep.any():
            break
        live, fac, chi, t = live[keep], fac[keep], chi[keep], t[keep]
        best, stalls = best[keep], stalls[keep]
    return factors, residual


def _lift_map() -> np.ndarray:
    """The constant, read-only (10, 16) map L with 4 q q^T = [1, r.flat] @ L
    (flattened) for the quaternion q of a rotation r: the formula below is
    linear in r, so it is evaluated at r = 0 and at the nine unit matrices."""
    r = np.concatenate([np.zeros((1, 3, 3)), np.eye(9).reshape(9, 3, 3)])
    tr = np.trace(r, axis1=-2, axis2=-1)
    qq = np.empty((10, 4, 4))
    qq[:, 0, 0] = 1 + tr
    qq[:, 0, 1:] = qq[:, 1:, 0] = (r - r.swapaxes(-1, -2))[:, [2, 0, 1], [1, 2, 0]]
    qq[:, 1:, 1:] = r + r.swapaxes(-1, -2) + (1 - tr)[:, None, None] * np.eye(3)
    lift = qq.reshape(10, 16)
    lift[1:] -= lift[0]
    lift.setflags(write=False)
    return lift


_LIFT = _lift_map()


def _su2_lift(r: np.ndarray) -> np.ndarray:
    """u in SU(2), up to sign, with u sigma_b u^dag = sum_a r[a, b] sigma_a
    for a stack of rotations r: u = q0 I - i q.sigma for the unit
    quaternion q, read off the column of 4 q q^T = [1, r.flat] @ _LIFT (one
    product for the whole stack) with the largest diagonal entry."""
    flat = r.reshape(-1, 9)
    qq = np.concatenate([np.ones((len(flat), 1)), flat], 1) @ _LIFT
    col = np.argmax(qq[:, ::5], 1)  # the diagonal of 4 q q^T
    q = qq.reshape(-1, 4)[4 * np.arange(col.size) + col].reshape(r.shape[:-2] + (4,))
    return _su2(q / np.linalg.norm(q, axis=-1, keepdims=True))


def _critical_angles(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Critical points, and the row of each in row order, of trigonometric polynomials f
    of degree D, a row of samples at 2D + 2 equispaced angles from 0 each: roots
    z = exp(i theta) of z^D f'(theta) from one FFT, all polished by Newton on f'.
    Coefficients of f' below 1e-12 max(1, max|f|), rounding noise that would push roots
    off the unit circle, are zeroed.  When the frequencies left differ by multiples of
    g > 1 (on L_n, q has period 2 pi / (n - 1), so f' keeps +-(n - 1) and g = 2n - 2),
    the polynomial is solved in w = z^g and z is every g-th root of w.  A row then
    constant, or left with no angle, gives theta = 0 without np.roots or a Newton step."""
    k = np.arange(1 - samples.shape[1] // 2, samples.shape[1] // 2)  # -D..D
    d1 = 1j * k * np.fft.fft(samples)[:, k] / samples.shape[1]  # coefficients of f'
    d1[abs(d1) < 1e-12 * np.maximum(1.0, abs(samples).max(1))[:, None]] = 0
    z, row = [np.empty(0)], [np.empty(0, dtype=int)]
    for r, d in enumerate(d1):
        live = np.flatnonzero(d)
        if live.size > 1:
            g = np.gcd.reduce(live - live[0])
            w = np.roots(d[live[0]:live[-1] + 1:g][::-1])
            z.append((w[:, None] ** (1 / g) * np.exp(2j * np.pi * np.arange(g) / g)).ravel())
            row.append(np.full(z[-1].size, r))
    z, row = np.concatenate(z), np.concatenate(row)
    ring = abs(abs(z) - 1.0) < _ROOT_RING
    theta, row = np.angle(z[ring]), row[ring]
    coef, dk = d1[row], 1j * k
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            wave = np.exp(theta[:, None] * dk) * coef
            theta = theta - wave.sum(1).real / (wave @ dk).real
    ok = np.isfinite(theta)
    lone = np.flatnonzero(np.bincount(row[ok], minlength=len(samples)) == 0)  # no angle left
    row = np.concatenate([row[ok], lone])
    order = np.argsort(row, kind="stable")
    return np.concatenate([theta[ok], np.zeros(lone.size)])[order], row[order]


def _starts(psi: PureState, target: PureState, restarts: int, seed: int
            ) -> tuple[np.ndarray, str]:
    """Start rows (rows, n, 2, 2) aligning psi with target, and their path.

    With T_12(psi) = A S B^T and T_12(target) = A' S B'^T, R_1 = A' P A^T
    for an orthogonal P commuting with S, and R_k = T_1k(target)^T R_1
    T_1k(psi)^-T.  Exact path: P is one of the 4 sign diagonals of determinant
    det(A A'); for target psi, det = 1 and P = I gives every R_k = I, the
    identity row, so the other 3.  Circle path: P = diag(eps, O(theta)) on the
    repeated plane, eps = +-1, so P = eps E_mm + cos theta (E_ii + f E_jj) +
    sin theta (E_ji - f E_ij) with f = eps det, and the rotations, linear in P,
    are rotations() of those five unit matrices taken once: every row is one
    (rows, 5) @ (5, 9n) product.  h = sum_k ||R_k^T R_k - I||^2 (zero at a
    symmetry) and, if h = 0, q = |<target|u psi>|^2 (one at a symmetry) have
    degree D = max(n, 4): the rows are their critical points.  Random row r:
    Haar SU(2)^n factors from derive_rng(seed, r), at a free phase too.
    """
    src = _correlations(psi.pauli_gram)
    a, s, _ = np.linalg.svd(src)  # of every T_1k; T_12 is index 0
    equal = -np.diff(s[0]) <= _GAP_TOL * s[0, 0]
    if equal.all() or not np.all(s[:, -1] * _COND_TOL > s[:, 0]):
        return _haar_u2(np.stack([_ginibre(derive_rng(seed, r), (psi.n,))
                                  for r in range(restarts)]), True), "random"
    path = "pair_circle" if equal.any() else "pair_exact"
    dst = src if target is psi else _correlations(target.pauli_gram)
    a, s, a2 = a[0], s[0], a[0] if target is psi else np.linalg.svd(dst[0])[0]
    det = np.linalg.det(a) * np.linalg.det(a2)
    inv_src_t = np.linalg.inv(src).swapaxes(-1, -2)

    def rotations(p: np.ndarray) -> np.ndarray:  # (rows, n, 3, 3): R_1, R_2, ..., R_n
        r1 = a2 @ p @ a.T
        rk = dst.swapaxes(-1, -2) @ r1[:, None] @ inv_src_t
        return np.concatenate([r1[:, None], rk], 1)

    if path == "pair_exact":
        signs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])[target is psi:]
        return _su2_lift(rotations(det * signs[..., None] * np.eye(3))), path
    i, j, m = (0, 1, 2) if s[0] - s[1] < s[1] - s[2] else (1, 2, 0)  # i, j: the plane
    basis = np.zeros((5, 3, 3))
    basis[range(5), [m, i, j, j, i], [m, i, j, i, j]] = 1.0  # E_mm, E_ii, E_jj, E_ji, E_ij
    basis = rotations(basis).reshape(5, -1)

    def circle(theta: np.ndarray, eps: np.ndarray) -> np.ndarray:
        c, sn, flip = np.cos(theta), np.sin(theta), eps * det  # flip -1: a reflection
        return (np.stack([eps, c, c * flip, sn, -sn * flip], 1) @ basis).reshape(-1, psi.n, 3, 3)

    size = 2 * max(psi.n, 4) + 2
    r = circle(np.tile(2 * np.pi * np.arange(size) / size, 2), np.repeat([1.0, -1.0], size))
    h = np.sum((np.einsum("rkab,rkac->rkbc", r, r) - np.eye(3)) ** 2, axis=(1, 2, 3))
    q = abs(_apply_factors(_su2_lift(r), psi.amplitudes) @ target.amplitudes.conj()) ** 2
    q = q / (psi.norm() * target.norm()) ** 2
    f = np.stack([h, q]).reshape(2, 2, -1)  # f, eps, theta
    theta, row = _critical_angles(f.swapaxes(0, 1).reshape(4, -1))  # rows 0, 1 at eps = 1
    return _su2_lift(circle(theta, np.where(row < 2, 1.0, -1.0))), path


def _align(psi: PureState, target: PureState, phases, restarts: int, seed: int,
           special: bool) -> tuple[np.ndarray, np.ndarray, str]:
    """Minimize ||u psi - t target|| over u in SU(2)^n at each phase t of ``phases``
    if special, else at a free t (over U(2)^n), by ``_polish_rows`` from ``_starts``.

    Every phase reads the same start rows, applied once.  On the exact and
    circle paths they are every candidate, and a row that does not start
    as a hit up to _CANDIDATE_OVERLAP at its phase keeps its start and
    residual inf; a row at -t starts at t with its factor 0 negated.  Rows
    starting below 1e-14 are not polished.  Returns factors (len(phases),
    rows, n, 2, 2), residuals (len(phases), rows), each finite one exactly
    ||u psi - t target|| for the returned u, and the path.  Rows are independent,
    so chunks of ``_BATCH_BYTES`` change no row.  Callers check restarts >= 1.
    """
    phases = np.asarray(phases, dtype=complex)
    start, path = _starts(psi, target, restarts, seed)
    factors = np.tile(start, (phases.size, 1, 1, 1, 1))
    residuals = np.full((phases.size, len(start)), np.inf)
    chunk = max(1, _BATCH_BYTES // (16 * 3 * psi.n * psi.dim * phases.size))
    norms = psi.norm() * target.norm()
    for lo in range(0, len(start), chunk):
        chi = _apply_factors(start[lo:lo + chunk], psi.amplitudes)
        ov = chi @ target.amplitudes.conj()
        # a free t absorbs any phase, a fixed t a sign: -u_1 is in SU(2)
        t = np.outer(phases, np.ones(len(ov))) if special else np.exp(1j * np.angle(ov))[None]
        fit = (t.conj() * ov).real / norms
        live = (abs(fit) > 1.0 - _CANDIDATE_OVERLAP) | (path == "random")
        sign = np.where(live & (fit < 0) & (path != "random"), -1.0, 1.0)
        chi = sign[..., None] * chi
        res = np.linalg.norm(chi - t[..., None] * target.amplitudes, axis=-1)
        factors[:, lo:lo + chunk, 0] *= sign[..., None, None]
        residuals[:, lo:lo + chunk] = np.where(live & (res < 1e-14), res, np.inf)
        p, i = np.nonzero(live & (res >= 1e-14))
        if p.size:
            factors[p, lo + i], residuals[p, lo + i] = _polish_rows(
                psi.amplitudes, target.amplitudes, t[p, i] if special else None,
                factors[p, lo + i], chi[p, i])
    return factors, residuals, path


def _chain_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max over factors of the sign-aligned Frobenius distance; leading axes broadcast."""
    return np.max(np.minimum(np.linalg.norm(a - b, axis=(-2, -1)),
                             np.linalg.norm(a + b, axis=(-2, -1))), -1)


def _require_budget(restarts: int, seed: int, tol: float | None = None) -> None:
    """Outside restarts >= 1 and 0 < tol < inf no row, or every row, is a hit;
    a negative seed is rejected on every start path, also those that read no seed."""
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    _require_seed(seed)
    if tol is not None and not 0 < tol < np.inf:  # also true for nan
        raise ValueError(f"search tolerance must be positive and finite, got {tol}")


def _search(psi: PureState, phases, restarts: int, seed: int, tol: float
            ) -> tuple[list[tuple[complex, LocalOperatorChain, float]], str]:
    """Hits (t, u, ||u psi - t psi||) below tol in phase order, with ``_align``'s
    residuals, and the path.  At any phase a row within _IDENTITY_EXCLUSION_RADIUS of
    +-I is dropped and one within _DEDUP_RADIUS of a hit kept before it is merged:
    such chains differ by factor signs, so their phases by +-1.  Only kept hits
    become chains, with no check: products of ``_su2`` factors and sign flips,
    they are in SU(2)**n by construction.
    """
    all_factors, all_residuals, path = _align(psi, psi, phases, restarts, seed, True)
    p, r = np.nonzero(all_residuals < tol)
    if not p.size:
        return [], path
    fac, res = all_factors[p, r], all_residuals[p, r]
    left, kept = _chain_distance(fac, np.eye(2)) > _IDENTITY_EXCLUSION_RADIUS, []
    while left.any():  # the first row left is kept and merges its near-duplicates
        kept.append(np.argmax(left))
        left &= _chain_distance(fac, fac[kept[-1]]) >= _DEDUP_RADIUS
    return [(phases[p[i]], _built(LocalOperatorChain, factors=fac[i], group_tag="K"),
             float(res[i])) for i in kept], path


def discrete_stabilizer_search(psi: PureState, restarts: int = 32, seed: int = 0,
                               tol: float = 1e-8) -> list[tuple[LocalOperatorChain, float]]:
    """Non-identity unitary chains u with ||u psi - psi|| below tol.

    Requires a critical state with zero-dimensional Lie stabilizer, so
    every product-operator symmetry is isolated and unitary.  Chains
    within the sign-aligned identity-exclusion radius of +-I are dropped;
    near-duplicates, which differ by factor signs, are merged.
    """
    return phase_stabilizer_search(psi, 1.0, restarts, seed, tol)


def phase_stabilizer_search(psi: PureState, t: complex, restarts: int = 32,
                            seed: int = 0, tol: float = 1e-8
                            ) -> list[tuple[LocalOperatorChain, float]]:
    """Unitary chains u with ||u psi - t psi|| below tol, |t| = 1.

    A hit exhibits a product symmetry of psi up to the global phase t,
    i.e. a GL-chain symmetry after relocating the scalar into one tensor
    factor.  With t = 1 this is the discrete search, under the same
    preconditions (a ValueError names the one that fails).  At every t chains
    within the identity-exclusion radius of +-I are dropped: -I on one qubit
    gives u psi = -psi for every state, a hit at any t near +-1.  Criticality is
    read, after the unit-norm check, off psi's one Pauli gather, which the Lie
    gate and the starts read too: max_k |r_k| / sqrt(2) <= 1e-8 for its Bloch
    vectors r, the Frobenius deviation ``criticality_report`` computes.
    """
    if not abs(abs(t) - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError(f"phase must have unit modulus, got |t| = {abs(t)}")
    _require_budget(restarts, seed, tol)
    _require_normalized(psi)  # before the gather, whose Gram matrix is NaN far from norm 1
    if not (deviation := _bloch_deviation(psi.bloch_vectors)) <= _CRITICAL_PRE_TOL:
        raise ValueError(f"precondition failed: criticality (max deviation {deviation:.2e})")
    probe = _lie_probe(psi, is_critical=True)
    if probe.lie_dim != 0:
        raise ValueError(f"precondition failed: lie_dim (got {probe.lie_dim}, need 0)")
    return [(chain, res) for _, chain, res in _search(psi, (t,), restarts, seed, tol)[0]]


def adjoint_closure_check(psi: PureState, chain: LocalOperatorChain) -> tuple[float, float]:
    """Residuals (||g psi - psi||, ||g^dag psi - psi||) on a critical state of g's size.

    The stabilizer of a critical state is closed under the adjoint, so a
    genuine symmetry witness keeps both residuals small.
    """
    if not criticality_report(psi, tol=_CRITICAL_PRE_TOL).is_critical:
        raise ValueError("adjoint closure check needs a critical state")
    if chain.n != psi.n:
        raise ValueError(f"chain acts on {chain.n} qubits, state has {psi.n}")
    fwd, bwd = (np.linalg.norm(s * _apply_factors(f, psi.amplitudes) - psi.amplitudes)
                for s, f in ((chain.scalar, chain.factors),
                             (np.conj(chain.scalar), chain.factors.conj().swapaxes(-1, -2))))
    return float(fwd), float(bwd)


def gtilde_triviality_probe(psi: PureState, restarts: int = 32,
                            seed: int = 0, tol: float = 1e-8) -> TrivialityVerdict:
    """Full pipeline deciding whether psi has any product-operator symmetry.

    Gates: (1) scale to the critical representative (null-cone states,
    and states whose scaling ends ill-conditioned because the
    representative it reached is not psi's, are inconclusive); (2) Lie
    stabilizer must be zero-dimensional; (3) a one-dimensional commutant
    of the pair tensors (``_commutant_is_scalar``) leaves only u = +-I at
    every phase, and the verdict is "trivial" on start path "commutant"
    with no search; (4) otherwise the compact-group search must come up
    empty; (5) a nonzero degree-2 invariant (even n) pins the admissible
    global phase to +-1 so step 4 suffices; for odd n a nonzero degree-4
    invariant pins the phase to fourth roots of unity and the +-i cases
    are probed directly, each witness once (its -i sign mirror merged into
    the i hit).  Witness findings are reported on the critical
    representative, whose stabilizer is conjugate to that of psi.  On
    start paths "commutant", "pair_exact" and "pair_circle" a "trivial"
    verdict does not depend on the budget or the seed: the last two
    enumerate every candidate.
    """
    _require_budget(restarts, seed, tol)
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
    if _commutant_is_scalar(rep.pauli_gram):
        probe.start_path = "commutant"
        return verdict("trivial", None)
    # t = 1 (and i, -i at odd n) in one batch; at even n every hit returns at discrete_search
    pin, gate, phases = ((f2, "f2_zero", (1.0,)), (f4, "f4_zero", (1.0, 1j, -1j)))[rep.n % 2]
    hits, probe.start_path = _search(rep, phases, restarts, seed, tol)
    probe.discrete_candidates = [(chain, res) for t, chain, res in hits if t == 1.0]
    if probe.discrete_candidates:
        return verdict("non_trivial", "discrete_search")
    probe.gtilde_phase_hits = hits
    if probe.gtilde_phase_hits:
        return verdict("non_trivial", "phase_search")
    if abs(pin(rep).value) <= 1e-10:
        return verdict("inconclusive", gate)
    return verdict("trivial", None)
