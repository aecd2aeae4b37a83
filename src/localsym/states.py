"""n-qubit pure states, local operator chains, and seeded samplers.

Conventions used throughout the package:

* A state on n qubits is a length-2**n complex vector. Basis index
  ``i = sum_k b_k 2**(n-k)``, i.e. qubit 1 is the most significant bit.
* Qubit indices in the public API are 1-based (1..n).
* A local operator chain g = g_1 (x) ... (x) g_n is one (n, 2, 2) stack
  of 2x2 matrices; the full 2**n x 2**n matrix is never materialized.
* ``_apply_next``, one matmul that also rolls the next qubit into the rows (a
  plain 2-D ``np.dot`` for one factor on one state), applies every 2x2 factor;
  one gather of Pauli images (``_pauli_images``) gives, by ``_gram_and_bloch``,
  the normalized state's Gram matrix (the Lie spectrum, the T_jk, the Newton
  Hessian) and Bloch vectors (the Newton-range convergence check and the search's
  criticality precondition).
* ``PureState(...)`` and ``LocalOperatorChain(...)`` check their input, which
  comes from user code and the ``io`` readers.  Objects the library builds from
  arrays it has just made and owns, whose construction already guarantees the
  invariants (the scaling's chain and representative, the search's hits, the
  rescaled connector and its target, ``normalized`` and ``sample_haar_state``),
  go through ``_built`` and are not checked again.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "PureState",
    "LocalOperatorChain",
    "make_w",
    "make_ln",
    "make_ghz",
    "make_gabcd",
    "apply_chain",
    "reduced_density",
    "fidelity",
    "sample_haar_state",
    "sample_chain",
    "derive_rng",
]

GROUP_TAGS = ("G", "K", "Gt", "Kt")

_DET_TOL = 1e-12
_UNITARY_TOL = 1e-12
_NORM_TOL = 1e-9


def _unitary_deviation(factors: np.ndarray) -> float:
    """max over a (n, 2, 2) stack of the Frobenius norm of g^dag g - I."""
    gram = factors.conj().swapaxes(-1, -2) @ factors
    return float(np.max(np.linalg.norm(gram - np.eye(2), axis=(-2, -1))))


def _det_rejected(factors: np.ndarray, group_tag: str) -> np.ndarray:
    """Which factors of a (n, 2, 2) stack fail the determinant rule of tag G,
    K or Gt, each judged against s_k = ||g_k||_F**2 / 2, the size of det's
    rounding (1 for a unitary): G and K need |det g_k - 1| <= 1e-12 s_k, Gt
    needs |det g_k| > 2e-12 s_k."""
    dets = np.linalg.det(factors)
    scale = 0.5 * np.einsum("kij,kij->k", factors, factors.conj()).real
    if group_tag == "Gt":  # not >: a zero factor (0 <= 0) and a NaN det fail
        return ~(abs(dets) > 2 * _DET_TOL * scale)
    return abs(dets - 1.0) > _DET_TOL * scale


def _vector_norm(amp: np.ndarray) -> float:
    """||amp||, divided by the largest modulus first: squares of amplitudes near
    1e300 would overflow.  Non-finite input returns that modulus, inf or nan; a
    finite vector whose norm exceeds the largest float returns inf, with no warning."""
    big = np.max(np.abs(amp))
    # Python floats: a product past the largest float is inf, where numpy's warns
    return float(big) * float(np.linalg.norm(amp / big)) if 0.0 < big < np.inf else float(big)


@dataclass(frozen=True, eq=False)
class PureState:
    """Pure state of ``n`` qubits; possibly unnormalized.

    Operations that need unit norm state it as a precondition rather
    than silently renormalizing.  The constructor checks its input and
    holds a read-only copy of it, so the norm and the Pauli gather (Gram
    matrix and Bloch vectors) are computed once; states the library
    builds from its own arrays (``_built``) are not checked again.
    """

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        amp = np.array(self.amplitudes, dtype=complex, order="C")
        if amp.shape != (2**self.n,):
            raise ValueError(
                f"amplitude vector must have length {2**self.n}, got shape {amp.shape}"
            )
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes must be finite")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return 2**self.n

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to an n-index tensor, axis k-1 <-> qubit k."""
        return self.amplitudes.reshape((2,) * self.n)

    def norm(self) -> float:
        return self._norm

    @cached_property
    def _norm(self) -> float:
        return _vector_norm(self.amplitudes)

    @cached_property
    def _gather(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only Gram matrix and Bloch vectors of ``_gram_and_bloch``."""
        return _gram_and_bloch(self.amplitudes)[:2]

    @property
    def pauli_gram(self) -> np.ndarray:
        """C / ||psi||**2, C = Re P P^dag, the read-only Pauli Gram matrix of psi normalized."""
        return self._gather[0]

    @property
    def bloch_vectors(self) -> np.ndarray:
        """The read-only Bloch vectors r of psi normalized: r[3k + a] = <sigma_a on qubit k>."""
        return self._gather[1]

    def normalized(self) -> "PureState":
        big = np.max(np.abs(self.amplitudes))
        if big == 0.0:
            raise ValueError("cannot normalize the zero vector")
        unit = self.amplitudes / big
        return _built(PureState, n=self.n, amplitudes=unit / np.linalg.norm(unit))


@dataclass(frozen=True, eq=False)
class LocalOperatorChain:
    """g = g_1 (x) ... (x) g_n as n explicit 2x2 matrices.

    ``group_tag`` declares the intended group and is validated on
    construction: "G" (SL(2,C) factors), "K" (SU(2)), "Gt" (GL(2,C)),
    "Kt" (U(2)); each factor's determinant is judged relative to its size
    (``_det_rejected``), so large SL(2) products pass.  ``scalar`` is an
    optional global prefactor kept separate so determinant-one structure
    of the factors is preserved.
    The constructor checks its input and holds a read-only copy of the
    factors; chains the library builds from its own factors (``_built``)
    are not checked again.
    """

    factors: np.ndarray
    group_tag: str
    scalar: complex = 1.0 + 0.0j

    def __post_init__(self):
        fac = np.array(self.factors, dtype=complex, order="C")
        if fac.ndim != 3 or fac.shape[1:] != (2, 2):
            raise ValueError(f"factors must have shape (n, 2, 2), got {fac.shape}")
        if self.group_tag not in GROUP_TAGS:
            raise ValueError(f"unknown group tag {self.group_tag!r}")
        # before det, which warns on them, and the tag tests, which NaN passes
        if not (np.isfinite(fac).all() and cmath.isfinite(complex(self.scalar))):
            raise ValueError("factors and scalar must be finite")
        if self.group_tag in ("K", "Kt") and _unitary_deviation(fac) > _UNITARY_TOL:
            raise ValueError(f"tag {self.group_tag} requires unitary factors")
        if self.group_tag != "Kt" and _det_rejected(fac, self.group_tag).any():
            need = "invertible" if self.group_tag == "Gt" else "unit-determinant"
            raise ValueError(f"tag {self.group_tag} requires {need} factors")
        fac.setflags(write=False)
        object.__setattr__(self, "factors", fac)

    @property
    def n(self) -> int:
        return self.factors.shape[0]


def _built(cls, **fields):
    """A ``PureState`` or ``LocalOperatorChain`` of ``fields`` for complex128,
    C-contiguous arrays the library has just made and owns: no copy and no check,
    the arrays are only set read-only.  A field may also seed a cached property
    (the scaling hands its representative the ``_gather`` of its last iterate).
    Callers guarantee what the constructor checks; input from users and files
    goes through the constructor."""
    obj = object.__new__(cls)
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    vars(obj).update(fields)
    return obj


# ---------------------------------------------------------------------------
# named states
# ---------------------------------------------------------------------------

def make_w(n: int, normalized: bool = True) -> PureState:
    """W state: equal superposition of the n weight-1 basis states."""
    if n < 2:
        raise ValueError(f"W state needs n >= 2, got {n}")
    amp = np.zeros(2**n, dtype=complex)
    for k in range(n):
        amp[1 << k] = 1.0
    if normalized:
        amp /= np.sqrt(n)
    return PureState(n, amp)


def make_ln(n: int, normalized: bool = True) -> PureState:
    """Critical state combining |1...1> with the W state.

    Normalized form carries sqrt(n-2)/sqrt(2(n-1)) on |1...1> and
    1/sqrt(2(n-1)) on each weight-1 basis state; the unnormalized form
    scales all of that by sqrt(2(n-1)).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    amp = np.zeros(2**n, dtype=complex)
    for k in range(n):
        amp[1 << k] = 1.0
    amp[2**n - 1] = np.sqrt(n - 2)
    if normalized:
        amp /= np.sqrt(2 * (n - 1))
    return PureState(n, amp)


def make_ghz(n: int, normalized: bool = True) -> PureState:
    """GHZ state (|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError(f"GHZ state needs n >= 2, got {n}")
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = 1.0
    amp[-1] = 1.0
    if normalized:
        amp /= np.sqrt(2)
    return PureState(n, amp)


def make_gabcd(a: complex, b: complex, c: complex, d: complex,
               normalized: bool = True) -> PureState:
    """Four-qubit SLOCC seed state.

    a(|0000>+|1111>) + b(|0011>+|1100>) + c(|0101>+|1010>)
    + d(|0110>+|1001>).  Its product-operator symmetries include the
    Pauli strings sx^4, sy^4, sz^4 for every coefficient choice.
    """
    coeffs = np.array([a, b, c, d], dtype=complex)
    if np.all(coeffs == 0):
        raise ValueError("coefficients (a, b, c, d) must not all vanish")
    amp = np.zeros(16, dtype=complex)
    amp[0b0000] = amp[0b1111] = a
    amp[0b0011] = amp[0b1100] = b
    amp[0b0101] = amp[0b1010] = c
    amp[0b0110] = amp[0b1001] = d
    psi = PureState(4, amp)
    # largest modulus first: squares of 1e300 overflow, those of 1e-170 underflow
    return psi.normalized() if normalized else psi


# ---------------------------------------------------------------------------
# state arithmetic
# ---------------------------------------------------------------------------

def _apply_next(g: np.ndarray, t: np.ndarray) -> np.ndarray:
    """g (..., 2, 2) applied to the qubit in the rows of t (..., 2, m), rolling the next
    qubit into the rows (n calls go round once); leading axes broadcast.  One factor on
    one state is a plain 2-D ``np.dot``, bitwise equal to the stacked matmul."""
    if g.ndim == t.ndim == 2:
        return np.dot(t.T, g.T).reshape(2, -1)
    out = t.swapaxes(-1, -2) @ g.swapaxes(-1, -2)
    return out.reshape(out.shape[:-2] + (2, -1))


def _apply_factors(factors: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """The chain of (..., n, 2, 2) factors applied to flat amplitudes (..., 2**n)
    by one ``_apply_next`` per qubit; leading axes broadcast as rows."""
    t = amp.reshape(amp.shape[:-1] + (2, -1))
    for k in range(factors.shape[-3]):
        # one (n, 2, 2) chain: factors[k], cheaper than the ellipsis index a stack needs
        t = _apply_next(factors[k] if factors.ndim == 3 else factors[..., k, :, :], t)
    return t.reshape(t.shape[:-2] + (-1,))


def apply_chain(chain: LocalOperatorChain, psi: PureState) -> PureState:
    """(g_1 (x) ... (x) g_n)|psi>, applied one qubit at a time."""
    if chain.n != psi.n:
        raise ValueError(f"chain acts on {chain.n} qubits, state has {psi.n}")
    return PureState(psi.n, chain.scalar * _apply_factors(chain.factors, psi.amplitudes))


def _require_normalized(psi: PureState) -> float:
    """The unit-norm precondition shared by every entry point that needs it; the norm."""
    nrm = psi.norm()
    if abs(nrm - 1.0) > _NORM_TOL:
        raise ValueError(f"state must be normalized, got norm {nrm!r}")
    return nrm


def _moments(t: np.ndarray) -> tuple[float, float, complex]:
    """(a, b, c) of the Gram matrix t t^dag = [[a, c], [c*, b]] of a (2, m) matrix
    whose rows index one qubit: its reduced density times ||t||^2, no copy needed."""
    (a, c), (_, b) = (t @ t.conj().T).tolist()
    return a.real, b.real, c


_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_UNIT_AND_PAULIS = np.concatenate([np.eye(2)[None], _PAULIS]).reshape(4, 4)


@lru_cache(maxsize=8)  # bounded: the tables of one size at n = 20 take 0.67 GB
def _pauli_tables(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only (n, dim) gather index, sigma_z signs and -i sigma_z phases of
    ``_pauli_images``, built once per size."""
    j = np.arange(dim)
    bits = (dim >> np.arange(1, dim.bit_length()))[:, None]  # row k: qubit k's bit
    z = np.where(j & bits, -1.0, 1.0)
    tables = j ^ bits, z, -1j * z
    for table in tables:
        table.setflags(write=False)
    return tables


def _pauli_images(amp: np.ndarray) -> np.ndarray:
    """(..., 3n, 2**n) array whose row 3k + a is sigma_a on qubit k (0-based) of flat
    amplitudes (..., 2**n): the tangent map of sl(2, C)**n in a basis orthonormal on
    each qubit.  Its real Gram matrix / ||amp||**2 is I_3 on diagonal blocks, T_jk off them.
    One gather: sigma_x flips qubit k's bit of the index, sigma_z is its sign, sigma_y = -i z x."""
    index, z, yz = _pauli_tables(amp.shape[-1])
    x = amp[..., index]
    images = np.empty(x.shape[:-1] + (3, x.shape[-1]), complex)  # (..., n, 3, 2**n)
    images[..., 0, :] = x
    np.multiply(yz, x, out=images[..., 1, :])
    np.multiply(z, amp[..., None, :], out=images[..., 2, :])
    return images.reshape(amp.shape[:-1] + (-1, amp.shape[-1]))


def _gram_and_bloch(amp: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(C / ||amp||**2, r, ||amp||**2) from one gather of the Pauli images P of the
    amplitudes: the read-only Gram matrix C = Re P P^T over ||amp||**2 (I_3 on its
    diagonal blocks, the T_jk off them), the read-only Bloch vectors r = Re P amp* / ||amp||**2
    (row 3k + a is <sigma_a on qubit k>) and ||amp||**2 = C[0, 0], as sigma_x is unitary."""
    flat = amp.reshape(-1)
    images = _pauli_images(flat).view(float)
    gram = images @ images.T
    sq_norm = gram[0, 0]
    unit_gram, bloch = gram / sq_norm, images @ flat.view(float) / sq_norm
    unit_gram.setflags(write=False)
    bloch.setflags(write=False)
    return unit_gram, bloch, float(sq_norm)


def _correlations(gram: np.ndarray) -> np.ndarray:
    """T_1k[a, b] = <sigma_a (x) sigma_b> on qubits 1 and k, k = 2..n, of the normalized
    state: (n - 1, 3, 3) blocks of its ``PureState.pauli_gram``."""
    return gram[:3, 3:].reshape(3, -1, 3).swapaxes(0, 1)


def reduced_density(psi: PureState, k: int) -> np.ndarray:
    """Single-qubit reduced density matrix of qubit k (1-based).

    Returns a Hermitian 2x2 with unit trace, that of the normalized state.
    """
    if not 1 <= k <= psi.n:
        raise ValueError(f"qubit index {k} out of range 1..{psi.n}")
    if not psi.amplitudes.any():
        raise ValueError("the zero vector has no reduced density")
    a, b, c = _moments(psi.amplitudes.reshape(2**(k - 1), 2, -1).swapaxes(0, 1).reshape(2, -1))
    return np.array([[a, c], [c.conjugate(), b]]) / (a + b)


def fidelity(psi: PureState, phi: PureState) -> float:
    """|<psi|phi>|^2 / (||psi||^2 ||phi||^2); undefined for a zero-norm state.

    Each state is divided by its largest modulus first, so norms near 1e-160
    or 1e300, whose squares would underflow or overflow, give the same value."""
    if psi.n != phi.n:
        raise ValueError(f"states have {psi.n} and {phi.n} qubits")
    if psi.norm() == 0.0 or phi.norm() == 0.0:
        raise ValueError("fidelity needs two states of nonzero norm")
    a, b = (s.amplitudes / np.max(np.abs(s.amplitudes)) for s in (psi, phi))
    return abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real)


# ---------------------------------------------------------------------------
# seeded samplers
# ---------------------------------------------------------------------------

def _require_seed(seed) -> None:
    """An integer seed must be non-negative; numpy's own error does not name it."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def derive_rng(seed, *indices) -> np.random.Generator:
    """Deterministic per-subtask generator, stable under any schedule."""
    _require_seed(seed)
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, indices)]))


def sample_haar_state(n: int, seed) -> PureState:
    """Haar-random n-qubit state: normalized complex Gaussian vector."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return _built(PureState, n=n, amplitudes=z / np.linalg.norm(z))


def _ginibre(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Complex Gaussian 2x2 matrices of batch shape ``shape``, real parts
    drawn before imaginary ones per matrix: a stack of n takes the same
    random stream as n draws of one."""
    z = rng.standard_normal(shape + (2, 2, 2))
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def _haar_u2(z: np.ndarray, special: bool) -> np.ndarray:
    """Haar-random U(2) matrices, SU(2) if special, from Ginibre matrices
    z: the QR factor Q with the phases of diag(R) moved into it."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / abs(d))[..., None, :]
    if special:
        q = q / np.sqrt(np.linalg.det(q))[..., None, None]
    return q


def sample_chain(n: int, group_tag: str, seed) -> LocalOperatorChain:
    """Random chain: Haar factors for K/Kt, Ginibre ones for G/Gt.

    The n factors are one Ginibre draw, for G divided by the principal
    root of their determinant.  Factors that fail the Gt rule of
    ``_det_rejected`` (numerically singular) are redrawn after the stack
    until regular, so the chain always passes the tag's invariants.
    """
    if group_tag not in GROUP_TAGS:
        raise ValueError(f"unknown group tag {group_tag!r}")
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    z = _ginibre(rng, (n,))
    if group_tag in ("K", "Kt"):
        return LocalOperatorChain(_haar_u2(z, group_tag == "K"), group_tag)
    z = z / np.sqrt(2)
    while (bad := np.flatnonzero(_det_rejected(z, "Gt"))).size:
        z[bad] = _ginibre(rng, bad.shape) / np.sqrt(2)
    if group_tag == "G":
        z = z / np.sqrt(np.linalg.det(z))[:, None, None]  # principal branch
    return LocalOperatorChain(z, group_tag)
