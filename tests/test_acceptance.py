"""Acceptance gate: one test per headline capability, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  The genericity census (criterion 6) dominates the
runtime at several minutes; everything else finishes in seconds.
"""

import numpy as np
import pytest

from localsym import (
    LocalOperatorChain,
    PureState,
    SearchBudget,
    apply_chain,
    adjoint_closure_check,
    build_protocol,
    criticality_report,
    discrete_stabilizer_search,
    f2,
    f4,
    genericity_report,
    lie_stabilizer_dim,
    make_gabcd,
    make_ghz,
    make_ln,
    make_w,
    min_norm_probe,
    phase_stabilizer_search,
    pmax,
    sample_chain,
    sample_haar_state,
    scale_to_critical,
    simulate_protocol,
)

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, kron_all


def check(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}", flush=True)
    assert ok, name


def phase_aligned_distance(dense_a, dense_b):
    ov = np.trace(dense_b.conj().T @ dense_a)
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0
    return np.linalg.norm(dense_a - phase * dense_b)


# ---------------------------------------------------------------------------
# shared witness searches (reused by the adjoint-closure criterion)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def seed_state_witnesses():
    """10 random four-qubit seed states with their discrete-search results."""
    rng = np.random.default_rng(2024)
    results = []
    for i in range(10):
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = make_gabcd(*coeffs)
        found = discrete_stabilizer_search(psi, restarts=32, seed=i)
        results.append((psi, coeffs, found))
    return results


@pytest.fixture(scope="module")
def l5_phase_witnesses():
    psi = make_ln(5)
    hits = phase_stabilizer_search(psi, 1j, restarts=32, seed=0)
    empty = discrete_stabilizer_search(psi, restarts=32, seed=0)
    return psi, hits, empty


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_slip_identities():
    ok = abs(f2(make_w(4)).value) <= 1e-10
    ok &= abs(f4(make_w(5)).value) <= 1e-10
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amp = a * make_w(5, normalized=False).amplitudes.copy()
        amp = amp + 0j
        amp[-1] += 2 * b
        amp[0] += b
        val = f4(PureState(5, amp)).value
        ok &= abs(val - (-4 * b**4)) <= 1e-10
    check("criterion 1: degree-2/4 invariant identities on w4, w5 families", ok)


def test_criterion_02_sl_invariance():
    ok = True
    trial = 0
    for n, count in ((4, 34), (5, 33), (6, 33)):
        poly = f4 if n % 2 else f2
        for _ in range(count):
            psi = sample_haar_state(n, 100 + trial)
            g = sample_chain(n, "G", 200 + trial)
            base = poly(psi).value
            moved = poly(apply_chain(g, psi)).value
            ok &= abs(moved - base) <= 1e-8 * max(1.0, abs(base))
            trial += 1
    check("criterion 2: invariance under 100 random unit-determinant chains", ok)


def test_criterion_03_ln_criticality():
    ok = all(criticality_report(make_ln(n), tol=1e-12).is_critical
             for n in range(4, 9))
    check("criterion 3: L_n reductions equal I/2 to 1e-12 for n=4..8", ok)


def test_criterion_04_lie_dimensions():
    expected = [(make_ln(2), 3), (make_ghz(3), 2), (make_w(3), 2),
                (make_ln(5), 0), (make_ln(6), 0), (make_ln(7), 0)]
    ok = all(lie_stabilizer_dim(psi).lie_dim == dim for psi, dim in expected)
    check("criterion 4: Lie stabilizer dimensions match analytic values", ok)


def test_criterion_05_seed_state_symmetries(seed_state_witnesses):
    targets = [kron_all([p] * 4) for p in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
    ok = True
    for psi, _, found in seed_state_witnesses:
        for t in targets:
            residual = np.linalg.norm(t @ psi.amplitudes - psi.amplitudes)
            ok &= residual <= 1e-12
            recovered = min((phase_aligned_distance(kron_all(c.factors), t)
                             for c, _ in found), default=np.inf)
            ok &= recovered < 1e-6
    check("criterion 5: Pauli-string symmetries of 10 random seed states "
          "recovered by the discrete search", ok)


def test_criterion_06_genericity():
    budget = SearchBudget()
    r5 = genericity_report(5, 100, seed=0, budget=budget)
    r6 = genericity_report(6, 50, seed=0, budget=budget)
    r3 = genericity_report(3, 50, seed=0, budget=budget)
    ok = r5.fraction_lie_trivial == 1.0 and r5.fraction_gtilde_trivial == 1.0
    ok &= r6.fraction_lie_trivial == 1.0 and r6.fraction_gtilde_trivial == 1.0
    ok &= r3.fraction_lie_trivial == 0.0
    check("criterion 6: Haar census (n=5: 100/100 trivial, n=6: 50/50 "
          "trivial, n=3: 0/50 with zero-dimensional stabilizer)", ok)


def test_criterion_07_l5_phase_witness(l5_phase_witnesses):
    _, hits, empty = l5_phase_witnesses
    ok = bool(hits) and min(res for _, res in hits) <= 1e-6
    ok &= empty == []
    check("criterion 7: L5 has a global-phase symmetry witness at t=i "
          "and no plain unitary one", ok)


def test_criterion_08_min_norm():
    ok = min_norm_probe(make_ln(5), trials=200, seed=0) >= 1.0 - 1e-12
    ok &= min_norm_probe(make_ghz(4), trials=200, seed=0) >= 1.0 - 1e-12
    check("criterion 8: critical states minimize the norm over 200 random "
          "chains", ok)


def test_criterion_09_scaling():
    ok = True
    for i in range(50):
        res = scale_to_critical(sample_haar_state(5, 500 + i))
        ok &= res.status == "converged"
        ok &= criticality_report(res.representative).is_critical
        ok &= bool(np.all(np.diff(res.norm_trajectory) <= 1e-12))
    ok &= scale_to_critical(make_w(3)).status == "null_cone"
    amp = np.array([0.9, 0, 0, np.sqrt(1 - 0.81)], dtype=complex)
    res = scale_to_critical(PureState(2, amp))
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    ok &= res.status == "converged"
    ok &= min(np.linalg.norm(res.representative.amplitudes - s * bell)
              for s in (1, -1)) <= 1e-8
    check("criterion 9: operator scaling converges on 50 random n=5 states, "
          "detects the null cone, and recovers the Bell representative", ok)


def _diag_chain_l5():
    factors = np.broadcast_to(np.eye(2, dtype=complex), (5, 2, 2)).copy()
    factors[0] = np.diag([2.0, 0.5])
    return LocalOperatorChain(factors, "G")


def test_criterion_10_conversion():
    psi = make_ln(5)
    plan = build_protocol(psi, _diag_chain_l5(), trivial_stabilizer=True)
    ok = abs(plan.p_max - 17 / 32) <= 1e-12
    for n0, n1 in plan.measurements:
        ok &= np.linalg.norm(n0.conj().T @ n0 + n1.conj().T @ n1
                             - np.eye(2)) <= 1e-12
    trials = 100_000
    stats = simulate_protocol(plan, psi, trials=trials, seed=0)
    se = np.sqrt(plan.p_max * (1 - plan.p_max) / trials)
    ok &= abs(stats.empirical_p - plan.p_max) <= 3 * se
    ok &= stats.mean_success_fidelity >= 1 - 1e-9
    check("criterion 10: p_max(L5, diag(2,1/2) x I^4) = 17/32 with a "
          "complete, statistically consistent protocol", ok)


def test_criterion_11_factorized_spectrum():
    ok = True
    for i in range(20):
        n = 3 + i % 4  # 3..6
        psi = sample_haar_state(n, 700 + i)
        chain = sample_chain(n, "G", 800 + i)
        plan = pmax(psi, chain)
        dense = kron_all(plan.connector.factors)
        lam_dense = np.linalg.eigvalsh(dense.conj().T @ dense)[-1]
        lam_prod = np.prod(plan.per_party_lambda)
        ok &= abs(lam_prod - lam_dense) <= 1e-10 * lam_dense
    check("criterion 11: factorized largest eigenvalue matches dense "
          "eigensolves for 20 random chains", ok)


def test_criterion_12_adjoint_closure(seed_state_witnesses, l5_phase_witnesses):
    ok = True
    for psi, _, found in seed_state_witnesses:
        for chain, residual in found:
            fwd, bwd = adjoint_closure_check(psi, chain)
            ok &= bwd <= 10 * max(fwd, 1e-15)
    l5, hits, _ = l5_phase_witnesses
    for chain, residual in hits:
        # relocate the global phase i into the chain scalar so the chain
        # fixes the state outright, then test closure under the adjoint
        g = LocalOperatorChain(chain.factors, "K", scalar=np.conj(1j))
        fwd, bwd = adjoint_closure_check(l5, g)
        ok &= bwd <= 10 * max(fwd, 1e-15)
    check("criterion 12: every symmetry witness survives the adjoint "
          "closure test", ok)
