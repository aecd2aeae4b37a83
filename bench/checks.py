"""Checks of localsym outputs against computations made apart from it.

Every check here recomputes what it needs with dense numpy linear algebra
(explicit ``np.kron`` products, ``einsum`` partial traces, full
eigensolves and SVDs) or tests a property the method must have.  None of
them calls localsym or compares with a stored copy of an earlier output.
A check that fails raises ``Mismatch`` with the measured quantity.
"""

from __future__ import annotations

import jsonschema
import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SL2_BASIS = (np.array([[0, 1], [0, 0]], dtype=complex),
             np.array([[0, 0], [1, 0]], dtype=complex),
             np.array([[1, 0], [0, -1]], dtype=complex))

LIE_CUTOFF = 1e-8      # relative singular-value cutoff of the Lie gate
SLIP_FLOOR = 1e-10     # |f2| or |f4| at or below this pins nothing
FLAT_TOL = 1e-9        # Frobenius distance of a reduction from I/2
PAULI_TOL = 1e-6       # phase-aligned distance to a Pauli string
ANALYTIC_TOL = 1e-6    # factor distance to diag(a, conj(a))
ORACLE_REL_TOL = 1e-9  # p_max against the dense eigensolve
COMPLETENESS_TOL = 1e-12


class Mismatch(Exception):
    """An output of the program disagrees with the independent check."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def kron_all(mats) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def embed(op: np.ndarray, k: int, n: int) -> np.ndarray:
    """op on qubit k (0-based) of n, identity elsewhere, as a dense matrix."""
    return kron_all([op if j == k else np.eye(2) for j in range(n)])


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def reductions(amplitudes: np.ndarray, n: int) -> list[np.ndarray]:
    """One-qubit reduced densities by einsum partial traces."""
    t = np.asarray(amplitudes).reshape((2,) * n)
    letters = "abcdefghijklmnopqrstuvwxyz"
    out = []
    for k in range(n):
        keep = letters[:n]
        other = keep[:k] + "A" + keep[k + 1:]
        out.append(np.einsum(f"{keep},{other}->{keep[k]}A", t, t.conj()))
    return out


def dense_lie_dim(amplitudes: np.ndarray, n: int) -> int:
    """3n minus the rank of the dense tangent map X -> X psi, X in sl(2)^n."""
    psi = np.asarray(amplitudes)
    cols = np.column_stack([embed(x, k, n) @ psi
                            for k in range(n) for x in SL2_BASIS])
    sv = np.linalg.svd(cols, compute_uv=False)
    rank = int(np.sum(sv > LIE_CUTOFF * sv[0])) if sv[0] > 0 else 0
    return 3 * n - rank


def dense_slip(amplitudes: np.ndarray, n: int) -> complex:
    """f2 (even n) or f4 (odd n) from a dense sigma_y tensor power."""
    psi = np.asarray(amplitudes)
    if n % 2 == 0:
        return complex(psi @ kron_all([SY] * n) @ psi)
    y = kron_all([SY] * (n - 1))
    halves = (psi[: psi.size // 2], psi[psi.size // 2:])
    b = np.array([[u @ y @ v for v in halves] for u in halves])
    return complex(np.linalg.det(b))


def check_record_trivial(n: int, verdict: str, failed_gate, lie_dim,
                         candidates: int) -> None:
    """A Haar sample at n >= 5 comes back trivial with no candidates."""
    expect(verdict == "trivial" and failed_gate is None,
           f"n={n}: verdict {verdict!r} (gate {failed_gate!r}), expected trivial")
    expect(lie_dim == 0 and candidates == 0,
           f"n={n}: record lie_dim={lie_dim}, candidates={candidates}")


def check_critical(representative: np.ndarray, n: int) -> None:
    """Unit norm, and every one-qubit reduction equals I/2."""
    rep = np.asarray(representative)
    expect(abs(np.linalg.norm(rep) - 1.0) <= 1e-12,
           f"n={n}: representative norm {np.linalg.norm(rep)!r}")
    dev = max(np.linalg.norm(r - 0.5 * np.eye(2)) for r in reductions(rep, n))
    expect(dev <= FLAT_TOL, f"n={n}: reduction off I/2 by {dev:.3e}")


def check_lie_trivial(representative: np.ndarray, n: int) -> None:
    dim = dense_lie_dim(representative, n)
    expect(dim == 0, f"n={n}: dense Lie stabilizer dimension {dim}")


def check_pinned(representative: np.ndarray, n: int) -> None:
    """f2 (even n) or f4 (odd n) is nonzero, so the phase is pinned."""
    slip = abs(dense_slip(representative, n))
    expect(slip > SLIP_FLOOR, f"n={n}: pinning invariant |f| = {slip:.3e}")


def check_census_sample(n: int, verdict: str, failed_gate, lie_dim,
                        candidates: int, representative) -> None:
    check_record_trivial(n, verdict, failed_gate, lie_dim, candidates)
    expect(representative is not None, f"n={n}: no critical representative")
    check_critical(representative, n)
    check_lie_trivial(representative, n)
    check_pinned(representative, n)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def check_witness(amplitudes: np.ndarray, factors: np.ndarray, t: complex,
                  tol: float) -> None:
    """u psi = t psi with u unitary, and u^dag psi = conj(t) psi (closure)."""
    psi = np.asarray(amplitudes)
    u = kron_all(factors)
    fwd = np.linalg.norm(u @ psi - t * psi)
    expect(fwd <= tol, f"witness residual {fwd:.3e} > {tol:.1e}")
    bwd = np.linalg.norm(u.conj().T @ psi - np.conj(t) * psi)
    expect(bwd <= 10 * max(fwd, 1e-15),
           f"adjoint closure: residual {bwd:.3e} against forward {fwd:.3e}")


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    ov = np.trace(b.conj().T @ a)
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def check_paulis_recovered(chains: list[np.ndarray]) -> None:
    """sx^4, sy^4 and sz^4 each appear among the found four-qubit chains."""
    dense = [kron_all(f) for f in chains]
    for label, p in (("x", SX), ("y", SY), ("z", SZ)):
        target = kron_all([p] * 4)
        best = min((phase_aligned_distance(d, target) for d in dense),
                   default=np.inf)
        expect(best < PAULI_TOL, f"sigma_{label}^4 not recovered (closest {best:.3e})")


def analytic_phases(n: int, t: complex) -> list[complex]:
    """All a with a^(2n-2) = 1 and a^(n-2) = t."""
    roots = np.exp(2j * np.pi * np.arange(2 * n - 2) / (2 * n - 2))
    return [a for a in roots if abs(a ** (n - 2) - t) < 1e-9]


def check_analytic_hit(n: int, t: complex, chains: list[np.ndarray]) -> None:
    """Some hit equals diag(a, conj a) on every qubit, each factor up to sign."""
    targets = [np.diag([a, np.conj(a)]) for a in analytic_phases(n, t)]
    expect(bool(targets), f"no analytic phase for n={n}, t={t}")

    def distance(factors, d):
        return max(min(np.linalg.norm(f - d), np.linalg.norm(f + d))
                   for f in factors)

    best = min((distance(f, d) for f in chains for d in targets), default=np.inf)
    expect(best <= ANALYTIC_TOL,
           f"L{n} at t={t}: no hit matches diag(a, conj a) (closest {best:.3e})")


# ---------------------------------------------------------------------------
# conversion
# ---------------------------------------------------------------------------

def dense_pmax(amplitudes: np.ndarray, factors: np.ndarray,
               scalar: complex = 1.0) -> float:
    """1 / lambda_max(G^dag G) for G rescaled so that ||G psi|| = 1."""
    psi = np.asarray(amplitudes)
    g = scalar * kron_all(factors)
    g = g / np.linalg.norm(g @ psi)
    return float(1.0 / np.linalg.eigvalsh(g.conj().T @ g)[-1])


def check_scaling(psi: np.ndarray, n: int, factors: np.ndarray, scalar: complex,
                  representative: np.ndarray, trajectory: list[float]) -> None:
    """The representative is critical, equals scalar * A psi, and the norm
    of A psi never rose along the way."""
    check_critical(representative, n)
    direct = scalar * kron_all(factors) @ np.asarray(psi)
    dev = np.linalg.norm(direct - representative)
    expect(dev <= 1e-10, f"representative differs from scalar * A psi by {dev:.3e}")
    rises = np.diff(trajectory, prepend=trajectory[0])
    expect(np.all(rises <= 1e-12), f"norm rose by {rises.max():.3e} in a sweep")


def check_close(label: str, value: float, reference: float, rel: float) -> None:
    err = abs(value - reference) / abs(reference)
    expect(err <= rel, f"{label}: {value!r} vs {reference!r} (rel {err:.3e})")


def check_measurements(measurements) -> None:
    """Each party's two outcomes are complete: N0^dag N0 + N1^dag N1 = I."""
    for j, (n0, n1) in enumerate(measurements):
        n0, n1 = np.asarray(n0), np.asarray(n1)
        dev = np.linalg.norm(n0.conj().T @ n0 + n1.conj().T @ n1 - np.eye(2))
        expect(dev <= COMPLETENESS_TOL, f"party {j + 1}: completeness off by {dev:.3e}")


def binomial_z(successes: int, trials: int, p: float) -> float:
    return (successes - trials * p) / np.sqrt(trials * p * (1.0 - p))


def check_frequency(successes: int, trials: int, p: float, sigmas: float) -> None:
    """Normal-approximation test, for large expected counts."""
    z = binomial_z(successes, trials, p)
    expect(abs(z) <= sigmas,
           f"{successes}/{trials} successes is {z:+.2f} sigma from p_max {p!r}")


def check_frequency_tail(successes: int, trials: int, p: float, alpha: float) -> None:
    """Chernoff test, valid for any expected count.

    exp(-trials * KL(successes/trials || p)) bounds the chance of a
    deviation at least this large on that side, so a correct simulator
    fails the test with probability below 2 * alpha.
    """
    q = successes / trials
    kl = sum(a * np.log(a / b) for a, b in ((q, p), (1.0 - q, 1.0 - p)) if a > 0)
    bound = np.exp(-trials * kl)
    expect(bound >= alpha,
           f"{successes}/{trials} successes against p_max {p!r}: tail bound {bound:.2e}")


def check_bit_exact(label: str, a, b) -> None:
    a, b = np.asarray(a), np.asarray(b)
    expect(a.shape == b.shape and a.dtype == b.dtype
           and a.tobytes() == b.tobytes(), f"{label}: round trip is not bit-exact")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def parse_matrix(rows) -> np.ndarray:
    """A 2x2 matrix from the report format: rows of [re, im] pairs."""
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def parse_amplitudes(state: dict) -> np.ndarray:
    """State amplitudes as written in a report."""
    return np.array([complex(re, im) for re, im in state["amplitudes"]])


def parse_factors(chain: dict) -> np.ndarray:
    """The factors of a chain as written in a report."""
    return np.array([parse_matrix(f) for f in chain["factors"]])


def check_report(doc: dict, schema: dict, command: str) -> None:
    """The CLI report validates against the envelope schema."""
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        raise Mismatch(f"{command} report: {exc.message}") from None
    expect(doc["command"] == command, f"report command {doc['command']!r}")
