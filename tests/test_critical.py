import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from localsym import (
    PureState,
    apply_chain,
    criticality_report,
    scale_to_critical,
    min_norm_probe,
    make_ghz,
    make_ln,
    make_w,
    sample_haar_state,
)
from localsym import critical, find_connector, gtilde_triviality_probe
from localsym.critical import _flattening_factor, _gram_and_bloch, _newton_factors
from localsym.io import chain_from_dict, chain_to_dict
from localsym.states import _moments, _pauli_tables

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, kron_all, near_null_cone_state


def reconstruct(psi, result):
    """scalar * (accumulated chain) psi, which should equal the representative."""
    out = apply_chain(result.accumulated_chain, psi)
    return PureState(psi.n, result.scalar * out.amplitudes)


def test_report_on_critical_state():
    rep = criticality_report(make_ghz(4))
    assert rep.is_critical
    assert rep.max_deviation <= 1e-14
    assert len(rep.per_qubit_deviation) == 4


def test_report_on_noncritical_state():
    rep = criticality_report(make_w(3))
    assert not rep.is_critical
    assert rep.max_deviation > 0.1


def test_report_requires_normalized():
    with pytest.raises(ValueError):
        criticality_report(make_w(3, normalized=False))


def test_report_rejects_bad_tol():
    # with tol = inf, W3 (null cone) would "converge" at iteration 0
    for tol in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            criticality_report(make_ghz(3), tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            scale_to_critical(make_w(3), tol=tol)


def test_scale_critical_input_is_noop():
    psi = make_ghz(4)
    result = scale_to_critical(psi)
    assert result.status == "converged"
    assert result.iterations == 0
    np.testing.assert_allclose(
        result.accumulated_chain.factors,
        np.broadcast_to(np.eye(2), (4, 2, 2)), atol=1e-14)
    np.testing.assert_allclose(result.representative.amplitudes,
                               psi.amplitudes, atol=1e-14)


def test_scale_haar_state_converges():
    psi = sample_haar_state(5, 7)
    result = scale_to_critical(psi)
    assert result.status == "converged"
    rep = criticality_report(result.representative)
    assert rep.is_critical


def test_scale_reconstruction():
    psi = sample_haar_state(4, 8)
    result = scale_to_critical(psi)
    rebuilt = reconstruct(psi, result)
    assert np.linalg.norm(rebuilt.amplitudes -
                          result.representative.amplitudes) < 1e-8


def test_scale_norm_trajectory_monotone():
    psi = sample_haar_state(5, 9)
    result = scale_to_critical(psi)
    traj = np.array(result.norm_trajectory)
    assert np.all(np.diff(traj) <= 1e-12)


def test_scale_w3_hits_null_cone():
    result = scale_to_critical(make_w(3))
    assert result.status == "null_cone"
    assert result.representative is None


def test_scale_product_state_hits_null_cone():
    amp = np.zeros(4, dtype=complex)
    amp[0] = 1.0
    result = scale_to_critical(PureState(2, amp))
    assert result.status == "null_cone"


def test_scale_two_qubit_schmidt_state_gives_bell():
    a = 0.9
    amp = np.array([a, 0, 0, np.sqrt(1 - a**2)], dtype=complex)
    result = scale_to_critical(PureState(2, amp))
    assert result.status == "converged"
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    dist = min(np.linalg.norm(result.representative.amplitudes - s * bell)
               for s in (1, -1))
    assert dist < 1e-8


def test_scale_max_iter_status():
    result = scale_to_critical(sample_haar_state(4, 10), max_iter=0)
    assert result.status == "max_iter"
    assert result.representative is None


def test_scale_rejects_negative_max_iter():
    with pytest.raises(ValueError, match="max_iter"):
        scale_to_critical(sample_haar_state(4, 10), max_iter=-1)


def eigh_flattening_reference(rho):
    """(rho / sqrt(det rho))**(-1/2) from the 2x2 eigensystem."""
    w, v = np.linalg.eigh(rho)
    return (v * (1.0 / np.sqrt(w / np.sqrt(w[0] * w[1])))) @ v.conj().T


@settings(max_examples=200, deadline=None)
@given(st.floats(-6.0, 0.0), st.floats(-2.0, 2.0),
       st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
           lambda x: np.hypot(np.hypot(x[0], x[1]), np.hypot(x[2], x[3])) > 1e-3))
def test_flattening_factor_matches_eigh_reference(log_ratio, log_scale, vec):
    # positive rho with eigenvalues lam_max * (10**log_ratio, 1) and a random eigenbasis
    a, b = complex(vec[0], vec[1]), complex(vec[2], vec[3])
    nrm = np.hypot(abs(a), abs(b))
    v = np.array([[a, -b.conjugate()], [b, a.conjugate()]]) / nrm
    rho = 10.0**log_scale * (v * [10.0**log_ratio, 1.0]) @ v.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    # rounding rho moves the exact factor by about eps * lam_max / lam_min,
    # for this formula and the eigh one alike
    tol = 1e-12 + 1e-14 * 10.0**-log_ratio
    g = _flattening_factor(rho[0, 0].real, rho[1, 1].real, rho[0, 1])
    assert abs(np.linalg.det(g) - 1.0) < tol
    flat = g @ rho @ g
    np.testing.assert_allclose(flat / np.trace(flat).real, np.eye(2) / 2, atol=tol)
    np.testing.assert_allclose(g, eigh_flattening_reference(rho), atol=tol)


def einsum_reduction(amp, k):
    """Unit-trace reduced density of qubit k (0-based) by an einsum partial trace."""
    t = amp.reshape(2**k, 2, -1)
    rho = np.einsum("aib,ajb->ij", t, t.conj())
    return rho / np.trace(rho).real


PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def reference_newton_factors(amp, n):
    """Dense Newton step on log ||E(x) amp||**2 with gradient and Hessian from
    np.kron Pauli strings and factors exp(x_k . sigma / 2) from eigh; None if
    the solve fails or is not finite."""
    images = np.array([kron_all([np.eye(2)] * k + [s] + [np.eye(2)] * (n - k - 1)) @ amp
                       for k in range(n) for s in PAULIS])
    sq_norm = np.vdot(amp, amp).real
    r = (images @ amp.conj()).real / sq_norm
    hessian = (images.conj() @ images.T).real / sq_norm - np.outer(r, r)
    try:
        x = -np.linalg.solve(hessian, r).reshape(n, 3)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(x)):
        return None
    x = x / max(1.0, np.max(np.linalg.norm(x, axis=1)))
    factors = []
    for xk in x:
        w, v = np.linalg.eigh(sum(c * s for c, s in zip(xk, PAULIS)))
        factors.append((v * np.exp(w / 2)) @ v.conj().T)
    return factors


def reference_scaling(psi, tol, max_iter):
    """The iteration on the flat amplitude vector with einsum reductions and
    eigh factors, under the same rules: for 4 <= n <= 8 a dense Newton step,
    kept if the norm rises by at most 1e-14 relative, else a sweep:
    (status, iterations, representative, chain, norm trajectory)."""
    n, amp = psi.n, psi.amplitudes
    acc = np.array([np.eye(2, dtype=complex)] * n)
    trajectory = [np.linalg.norm(amp)]

    def apply(g, amp, k):
        return np.einsum("ij,ajb->aib", g, amp.reshape(2**k, 2, -1)).reshape(-1)

    for it in range(max_iter + 1):
        rhos = [einsum_reduction(amp, k) for k in range(n)]
        if max(np.linalg.norm(rho - np.eye(2) / 2) for rho in rhos) <= tol:
            return "converged", it, amp / np.linalg.norm(amp), acc, trajectory
        if it == max_iter:
            return "max_iter", it, None, acc, trajectory
        factors = reference_newton_factors(amp, n) if 4 <= n <= 8 else None
        stepped = amp
        for k, g in enumerate(factors or []):
            stepped = apply(g, stepped, k)
        if factors and np.linalg.norm(stepped) <= trajectory[-1] * (1 + 1e-14):
            amp, acc = stepped, np.array(factors) @ acc
        else:
            for k in range(n):
                rho = rhos[0] if k == 0 else einsum_reduction(amp, k)
                if np.linalg.eigvalsh(rho)[0] < 1e-14:
                    return "null_cone", it, None, acc, trajectory
                g = eigh_flattening_reference(rho)
                amp = apply(g, amp, k)
                acc[k] = g @ acc[k]
        trajectory.append(np.linalg.norm(amp))
        if trajectory[-1] < 1e-6 * trajectory[0]:
            return "null_cone", it + 1, None, acc, trajectory


PARITY_CASES = {
    **{f"haar{n}-{seed}": (sample_haar_state(n, seed), 10_000)
       for n in range(1, 11) for seed in range(3)},
    "w3": (make_w(3), 10_000),
    "product": (PureState(2, np.kron([0.8, 0.6j], [1.0, 0.0])), 10_000),
    # 0.8|000> + 0.6|101>: qubit 0 is flattened, then qubit 1 is singular,
    # a null-cone exit within a sweep
    "mid-sweep": (PureState(3, np.eye(8)[0] * 0.8 + np.eye(8)[5] * 0.6), 10_000),
    "schmidt": (PureState(2, np.array([0.9, 0, 0, np.sqrt(1 - 0.81)])), 10_000),
    "max-iter-0": (sample_haar_state(5, 3), 0),
    "max-iter-1": (sample_haar_state(5, 3), 1),
}


@pytest.mark.parametrize("case", PARITY_CASES)
def test_scaling_matches_flat_vector_reference(case):
    psi, max_iter = PARITY_CASES[case]
    result = scale_to_critical(psi, tol=1e-11, max_iter=max_iter)
    status, iterations, rep, chain, trajectory = reference_scaling(psi, 1e-11, max_iter)
    assert (result.status, result.iterations) == (status, iterations)
    np.testing.assert_allclose(result.norm_trajectory, trajectory, rtol=0, atol=1e-12)
    # null-cone chains grow as the norm decays, so compare them at their own scale
    scale = max(1.0, np.max(abs(chain)))
    np.testing.assert_allclose(result.accumulated_chain.factors, chain, rtol=0, atol=1e-12 * scale)
    if rep is None:
        assert result.representative is None
    else:
        np.testing.assert_allclose(result.representative.amplitudes, rep, rtol=0, atol=1e-12)


def eager_scaling(psi, tol, max_iter, newton=True):
    """``scale_to_critical`` with an eager convergence check in the same float
    operations: all n deviations of every iterate, for 4 <= n <= 8 from the Bloch
    vectors of a fresh ``_gram_and_bloch`` (no gather carried over), else from the
    moments; newton=False gives the sweep-only loop for every n: (status,
    iterations, trajectory, chain, representative, scalar, the representative's
    Gram matrix or None if it is left to be computed)."""
    n, t = psi.n, psi.amplitudes.reshape(2, -1)
    newton = newton and 4 <= n <= 8
    acc = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    steps = np.empty_like(acc)
    trajectory = [psi.norm()]

    def finish(status, iterations):
        if status != "converged":
            return status, iterations, trajectory, acc, None, 1.0 + 0j, None
        nrm = np.linalg.norm(t)
        return (status, iterations, trajectory, acc, t.reshape(-1) / nrm, complex(1.0 / nrm),
                gram if newton else None)

    for it in range(max_iter + 1):
        if newton:
            gram, r, _ = _gram_and_bloch(t)
            devs = [math.sqrt(0.5 * np.sum(rk * rk)) for rk in r.reshape(n, 3)]
        else:
            devs, u = [], t
            for _ in range(n):
                a, b, c = _moments(u)
                devs.append(math.sqrt(0.5 * (a - b) ** 2 + 2 * abs(c) ** 2) / (a + b))
                u = u.T.reshape(2, -1)
        if max(devs) <= tol:
            return finish("converged", it)
        if it == max_iter:
            return finish("max_iter", it)
        factors = _newton_factors(gram, r) if newton else None
        if factors is not None:
            u = t
            for g in factors:
                u = (u.T @ g.T).reshape(2, -1)
            nrm = math.sqrt(_gram_and_bloch(u)[2])
            if nrm <= trajectory[-1] * (1 + 1e-14):
                t, steps[:] = u, factors
            else:
                factors = None
        if factors is None:
            for k in range(n):
                g = _flattening_factor(*_moments(t))
                if g is None:
                    acc[:k] = steps[:k] @ acc[:k]
                    return finish("null_cone", it)
                steps[k] = g
                t = (t.T @ g.T).reshape(2, -1)
            nrm = float(np.linalg.norm(t))
        acc = steps @ acc
        trajectory.append(nrm)
        if trajectory[-1] < 1e-6 * trajectory[0]:
            return finish("null_cone", it + 1)


def assert_bitwise(result, expected):
    status, iterations, trajectory, chain, rep, scalar, gram = expected
    assert (result.status, result.iterations, result.scalar) == (status, iterations, scalar)
    assert result.norm_trajectory == trajectory
    assert result.accumulated_chain.factors.tobytes() == chain.tobytes()
    if rep is None:
        assert result.representative is None
    else:
        assert result.representative.amplitudes.tobytes() == rep.tobytes()
        if gram is not None:  # seeded by the scaling, not computed from the amplitudes
            seeded = vars(result.representative)["pauli_gram"]
            assert seeded.tobytes() == gram.tobytes() and not seeded.flags.writeable
        else:
            assert "pauli_gram" not in vars(result.representative)


@settings(max_examples=100, deadline=None)
@given(st.builds(sample_haar_state, st.integers(1, 10), st.integers(0, 2**32 - 1)),
       st.sampled_from([1e-10, 1e-11]), st.sampled_from([0, 1, 10_000]))
# flat on all qubits but the last: a check that skips it converges at once
@example(PureState(3, np.kron(make_ln(2).amplitudes, [0.6, 0.8])), 1e-11, 10_000)
@example(PureState(5, np.kron(make_ln(4).amplitudes, [0.6, 0.8])), 1e-11, 10_000)
def test_lazy_convergence_check_is_bitwise_eager(psi, tol, max_iter):
    """The lazy check, and in the Newton range the gather carried from the step's
    acceptance test into the next check, change no bit."""
    result = scale_to_critical(psi, tol=tol, max_iter=max_iter)
    assert_bitwise(result, eager_scaling(psi, tol, max_iter))


@pytest.mark.parametrize("case", [c for c, (psi, _) in PARITY_CASES.items() if not 4 <= psi.n <= 8])
def test_sweep_only_outside_newton_range_is_bitwise(case):
    """n <= 3 and n >= 9 run the sweep-only loop, bit for bit."""
    psi, max_iter = PARITY_CASES[case]
    result = scale_to_critical(psi, tol=1e-11, max_iter=max_iter)
    assert_bitwise(result, eager_scaling(psi, 1e-11, max_iter, newton=False))


def two_qubit_spectra(amp, n):
    """Eigenvalues of every two-qubit reduced density of the normalized state."""
    tensor = amp.reshape((2,) * n) / np.linalg.norm(amp)
    spectra = []
    for j in range(n):
        for k in range(j + 1, n):
            m = np.moveaxis(tensor, (j, k), (0, 1)).reshape(4, -1)
            spectra.append(np.linalg.eigvalsh(m @ m.conj().T))
    return np.array(spectra)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.sampled_from([1e-10, 1e-11]))
@example(4, 996488, 1e-10)  # the sweeps alone need 10 336 iterations
def test_newton_steps_reach_the_sweep_orbit(n, seed, tol):
    """Newton steps end on the unitary orbit the sweeps end on: same status
    and minimal norm, same two-qubit spectra, a unit-determinant chain and
    no norm rise beyond rounding.  The sweep-only reference gets a budget
    it does not exhaust, so it is never compared while unfinished."""
    psi = sample_haar_state(n, seed)
    result = scale_to_critical(psi, tol=tol)
    status, _, _, _, rep, scalar, _ = eager_scaling(psi, tol, 100_000, newton=False)
    assert status != "max_iter"
    assert result.status == status
    assert abs(result.scalar - scalar) <= 1e-12 * abs(scalar)
    if rep is not None:
        np.testing.assert_allclose(two_qubit_spectra(result.representative.amplitudes, n),
                                   two_qubit_spectra(rep, n), rtol=0, atol=1e-9)
    dets = np.linalg.det(result.accumulated_chain.factors)
    assert np.max(np.abs(dets - 1.0)) <= 1e-12
    assert np.all(np.diff(result.norm_trajectory) <= 1e-12)


NULL_CONE_CASES = {
    "w3": make_w(3), "w4": make_w(4), "w5": make_w(5),
    "product": PARITY_CASES["product"][0],
    "mid-sweep": PARITY_CASES["mid-sweep"][0],
    "haar1": sample_haar_state(1, 0),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", NULL_CONE_CASES)
def test_null_cone_states_exit_without_overflow(case):
    """Near the null cone the Hessian turns singular; the capped step and the
    sweep fallback still end in null_cone, with no floating-point warning."""
    result = scale_to_critical(NULL_CONE_CASES[case], tol=1e-11)
    assert result.status == "null_cone"
    assert result.representative is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_critical_and_budget_exits_without_overflow():
    assert scale_to_critical(make_ghz(4)).iterations == 0
    for max_iter in (0, 1):
        result = scale_to_critical(sample_haar_state(5, 3), max_iter=max_iter)
        assert (result.status, result.iterations) == ("max_iter", max_iter)


def test_scale_requires_normalized():
    with pytest.raises(ValueError):
        scale_to_critical(make_ghz(3, normalized=False))


def test_scale_unit_det_accumulated_chain():
    result = scale_to_critical(sample_haar_state(4, 11))
    dets = np.linalg.det(result.accumulated_chain.factors)
    assert np.max(np.abs(dets - 1.0)) < 1e-10


def test_large_scaling_chain_converges_and_reloads():
    """Factors of Frobenius norm 400 carry det rounding far above 1e-12, which
    the per-factor relative rule absorbs."""
    psi = near_null_cone_state(3, 0)
    result = scale_to_critical(psi)
    assert result.status == "converged"
    assert np.max(np.linalg.norm(result.accumulated_chain.factors, axis=(1, 2))) > 100
    reloaded = chain_from_dict(chain_to_dict(result.accumulated_chain))
    np.testing.assert_array_equal(reloaded.factors, result.accumulated_chain.factors)
    assert np.linalg.norm(reconstruct(psi, result).amplitudes
                          - result.representative.amplitudes) <= 1e-10


def test_drifted_representative_is_ill_conditioned():
    """At n = 9 hundreds of sweeps leave the representative far from
    scalar * A psi: the run reports so instead of raising or returning it."""
    psi = near_null_cone_state(9, 0)
    result = scale_to_critical(psi)
    assert result.status == "ill_conditioned"
    assert result.representative is None and result.scalar == 1.0
    chain_from_dict(chain_to_dict(result.accumulated_chain))
    verdict = gtilde_triviality_probe(psi)
    assert (verdict.verdict, verdict.failed_gate) == (
        "inconclusive", "critical_scaling:ill_conditioned")
    with pytest.raises(ValueError, match=r"no critical representative for psi \(ill_conditioned\)"):
        find_connector(psi, psi)


def test_min_norm_probe_on_critical_states():
    assert min_norm_probe(make_ghz(4), trials=50) >= 1.0 - 1e-12
    assert min_norm_probe(make_ln(5), trials=50) >= 1.0 - 1e-12


def test_min_norm_probe_rejects_noncritical():
    with pytest.raises(ValueError):
        min_norm_probe(make_w(3))


def test_scaling_builds_pauli_tables_once():
    """Counts, not timings: a Newton-range scaling builds the Pauli tables of
    its size once and reuses them; a critical input builds none."""
    for n in (4, 5, 6, 8):
        _pauli_tables.cache_clear()
        result = scale_to_critical(sample_haar_state(n, 7), tol=1e-11)
        assert result.status == "converged" and result.iterations >= 3
        _pauli_tables(2**n)  # a hit: the one table built is this size's
        assert _pauli_tables.cache_info()[1:] == (1, 8, 1)  # misses, maxsize, currsize
    # a critical input: the Newton range's first check gathers, a sweep-range one does not
    _pauli_tables.cache_clear()
    assert scale_to_critical(make_ln(5)).iterations == 0
    _pauli_tables(32)
    assert _pauli_tables.cache_info()[1:] == (1, 8, 1)
    _pauli_tables.cache_clear()
    assert scale_to_critical(make_ghz(3)).iterations == 0
    assert scale_to_critical(make_ln(9)).iterations == 0
    assert _pauli_tables.cache_info().misses == 0


def test_newton_range_scaling_gathers_once_per_checked_iterate(monkeypatch):
    """Counts, not timings: with every step a Newton step (no sweep reads a
    moment), each iterate the check reads is gathered once, at the step's
    acceptance test or, for the input, at the first check; max_iter exits too."""
    gathered, moments = [], []
    images, kernel = critical._pauli_images, critical._moments
    monkeypatch.setattr(critical, "_pauli_images", lambda a: gathered.append(1) or images(a))
    monkeypatch.setattr(critical, "_moments", lambda t: moments.append(1) or kernel(t))
    for n in range(4, 9):
        for seed in range(4):
            for max_iter in (10_000, 2):
                gathered.clear()
                result = scale_to_critical(sample_haar_state(n, seed), tol=1e-11,
                                           max_iter=max_iter)
                assert result.status in ("converged", "max_iter") and moments == []
                assert len(gathered) == result.iterations + 1
