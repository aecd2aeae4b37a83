import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localsym import (
    LocalOperatorChain,
    PureState,
    apply_chain,
    fidelity,
    pmax,
    build_protocol,
    simulate_protocol,
    deterministic_convertible,
    find_connector,
    make_ghz,
    make_ln,
    sample_chain,
    sample_haar_state,
)

from localsym import stabilizer
from conftest import kron_all


def diag_chain_l5():
    factors = np.broadcast_to(np.eye(2, dtype=complex), (5, 2, 2)).copy()
    factors[0] = np.diag([2.0, 0.5])
    return LocalOperatorChain(factors, "G")


def test_pmax_l5_value():
    plan = pmax(make_ln(5), diag_chain_l5())
    assert abs(plan.p_max - 17 / 32) < 1e-12
    assert abs(plan.target.norm() - 1.0) < 1e-12


def test_pmax_dense_eigen_oracle():
    psi = sample_haar_state(4, 0)
    chain = sample_chain(4, "G", 1)
    plan = pmax(psi, chain)
    dense = kron_all(plan.connector.factors)
    lam_dense = np.linalg.eigvalsh(dense.conj().T @ dense)[-1]
    assert abs(np.prod(plan.per_party_lambda) - lam_dense) < 1e-10 * lam_dense


@pytest.mark.parametrize("n", range(2, 9))
def test_lambda_and_measurements_match_per_factor_loops(n):
    """Batched lambda_j, N0 and N1 equal the per-factor eigvalsh/eigh loops bitwise."""
    psi = sample_haar_state(n, 50 + n)
    plan = build_protocol(psi, sample_chain(n, "G", 60 + n))
    g = plan.connector.factors
    grams = np.transpose(g.conj(), (0, 2, 1)) @ g
    lam = np.array([np.linalg.eigvalsh(m)[-1] for m in grams])
    assert plan.per_party_lambda.tobytes() == lam.tobytes()
    for g_j, lam_j, (n0, n1) in zip(g, lam, plan.measurements):
        n0_ref = g_j / np.sqrt(lam_j)
        defect = np.eye(2) - n0_ref.conj().T @ n0_ref
        w, v = np.linalg.eigh(0.5 * (defect + defect.conj().T))
        n1_ref = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        assert n0.tobytes() == n0_ref.tobytes()
        assert n1.tobytes() == n1_ref.tobytes()


def test_pmax_scalar_invariance():
    psi = make_ln(5)
    base = pmax(psi, diag_chain_l5())
    scaled = LocalOperatorChain(diag_chain_l5().factors, "G", scalar=3.0 - 4.0j)
    again = pmax(psi, scaled)
    assert abs(base.p_max - again.p_max) < 1e-14


def test_pmax_optimality_statuses():
    psi = make_ln(5)
    chain = diag_chain_l5()
    assert pmax(psi, chain).optimality == "unknown"
    assert pmax(psi, chain, trivial_stabilizer=True).optimality == "exact_optimum"
    assert pmax(psi, chain, trivial_stabilizer=False).optimality == "lower_bound"


def test_pmax_unitary_chain_gives_one():
    psi = sample_haar_state(4, 2)
    u = sample_chain(4, "K", 3)
    assert abs(pmax(psi, u).p_max - 1.0) < 1e-12


def test_pmax_rejects_unnormalized_state():
    with pytest.raises(ValueError):
        pmax(make_ghz(3, normalized=False), sample_chain(3, "G", 0))


def test_pmax_rejects_chain_that_underflows():
    # invertible factors of 1e-150: det passes the relative singularity test,
    # but their product with psi is 1e-750, which is zero in doubles
    tiny = LocalOperatorChain(np.broadcast_to(1e-150 * np.eye(2), (5, 2, 2)), "Gt")
    with pytest.raises(ValueError, match="underflows"):
        pmax(make_ln(5), tiny)


def test_singular_factor_rejected_at_chain_construction():
    factors = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy()
    factors[1] = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        LocalOperatorChain(factors, "Gt")


def test_protocol_measurement_completeness():
    plan = build_protocol(make_ln(5), diag_chain_l5())
    for n0, n1 in plan.measurements:
        residual = np.linalg.norm(n0.conj().T @ n0 + n1.conj().T @ n1 - np.eye(2))
        assert residual < 1e-12


def test_protocol_zero_trials():
    psi = make_ln(5)
    plan = build_protocol(psi, diag_chain_l5())
    stats = simulate_protocol(plan, psi, trials=0)
    assert stats.trials == 0 and stats.empirical_p is None


def test_protocol_rejects_negative_trials():
    psi = make_ln(5)
    plan = build_protocol(psi, diag_chain_l5())
    with pytest.raises(ValueError, match="trials must be non-negative"):
        simulate_protocol(plan, psi, trials=-1)


def test_protocol_simulation_statistics():
    psi = make_ln(5)
    plan = build_protocol(psi, diag_chain_l5())
    trials = 20_000
    stats = simulate_protocol(plan, psi, trials=trials, seed=4)
    se = np.sqrt(plan.p_max * (1 - plan.p_max) / trials)
    assert abs(stats.empirical_p - plan.p_max) < 4 * se
    assert stats.mean_success_fidelity > 1 - 1e-9


def test_simulation_deterministic():
    psi = make_ln(5)
    plan = build_protocol(psi, diag_chain_l5())
    a = simulate_protocol(plan, psi, 1000, seed=5)
    b = simulate_protocol(plan, psi, 1000, seed=5)
    assert a.successes == b.successes


def test_simulation_takes_any_int64_trial_count():
    psi = make_ln(5)
    plan = build_protocol(psi, diag_chain_l5())
    stats = simulate_protocol(plan, psi, 2**63 - 1, seed=6)
    assert abs(stats.empirical_p - 17 / 32) < 1e-6
    with pytest.raises(ValueError, match="at most"):
        simulate_protocol(plan, psi, 2**63)


def test_local_unitary_protocol_always_succeeds():
    # prod_j cond_p_j is 1 up to rounding and exceeds 1 by a few ulps for
    # about a third of these states; the draw must clip it, not raise
    for s in range(20):
        n = 3 + s % 4
        psi = sample_haar_state(n, s)
        plan = build_protocol(psi, sample_chain(n, "Kt", 100 + s))
        stats = simulate_protocol(plan, psi, 10**6, seed=s)
        assert stats.successes == stats.trials


def test_simulation_requires_measurements():
    psi = make_ln(5)
    plan = pmax(psi, diag_chain_l5())
    with pytest.raises(ValueError):
        simulate_protocol(plan, psi, 10)


def test_deterministic_convertible():
    psi = sample_haar_state(4, 6)
    ok, why = deterministic_convertible(psi, sample_chain(4, "K", 7))
    assert ok and "unitary" in why
    bad_factors = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2)).copy()
    bad_factors[0] = np.diag([2.0, 0.5])
    no, why = deterministic_convertible(psi, LocalOperatorChain(bad_factors, "G"))
    assert not no and "p_max" in why


def test_find_connector_roundtrip():
    psi = sample_haar_state(4, 8)
    g_true = sample_chain(4, "G", 9)
    phi = apply_chain(g_true, psi).normalized()
    g = find_connector(psi, phi, restarts=8, seed=0)
    assert g is not None
    out = apply_chain(g, psi)
    assert fidelity(out, phi) > 1 - 1e-8
    assert abs(out.norm() - 1.0) < 1e-8


@pytest.mark.parametrize("s", range(10))
def test_connector_pmax_matches_dense_oracle(s):
    psi = sample_haar_state(5, s)
    g = sample_chain(5, "G", 100 + s)
    connector = find_connector(psi, apply_chain(g, psi).normalized())
    assert connector is not None
    dense = kron_all(g.factors)
    oracle = (np.linalg.norm(dense @ psi.amplitudes) ** 2
              / np.linalg.eigvalsh(dense.conj().T @ dense)[-1])
    assert abs(pmax(psi, connector).p_max - oracle) <= 1e-10 * oracle


@pytest.mark.parametrize("n,psi_seed,g_seed", [(5, 742229531, 900129750),
                                               (5, 551041526, 2114549257),
                                               (7, 2080559624, 874231927),
                                               (8, 1258465162, 663344350),
                                               (8, 980625548, 854138872)])
def test_find_connector_on_pairs_random_starts_missed(n, psi_seed, g_seed):
    """32 Haar-random alignment starts returned None on these pairs."""
    psi = sample_haar_state(n, psi_seed)
    phi = apply_chain(sample_chain(n, "G", g_seed), psi).normalized()
    g = find_connector(psi, phi)
    assert g is not None
    assert fidelity(apply_chain(g, psi), phi) > 1 - 1e-8


@settings(max_examples=15, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2**31 - 1))
def test_find_connector_on_random_g_orbits(n, seed):
    """phi = g psi / ||g psi|| is connected to psi by construction.  At n = 3
    the stabilizer is positive-dimensional, so the Gram matrix of the Pauli
    images that the polish inverts is singular."""
    psi = sample_haar_state(n, seed)
    phi = apply_chain(sample_chain(n, "G", seed + 1), psi).normalized()
    g = find_connector(psi, phi)
    assert g is not None
    assert fidelity(apply_chain(g, psi), phi) > 1 - 1e-8


def test_connector_row_at_the_rounding_floor_stops(monkeypatch):
    """The polished row of this pair hovers at 1.0e-14, just above the stop
    rule, with rounding noise; counting stalls against the previous step's
    residual instead of the best one let it run for all 1000 steps."""
    steps = []
    images = stabilizer._pauli_images
    monkeypatch.setattr(stabilizer, "_pauli_images", lambda amp: steps.append(1) or images(amp))
    psi = sample_haar_state(8, 316)
    phi = apply_chain(sample_chain(8, "G", 416), psi).normalized()
    assert find_connector(psi, phi) is not None
    assert len(steps) <= 20


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("restarts", [1, 32])
def test_find_connector_on_ln_g_orbits(n, restarts):
    """L_n takes the circle path, whose candidates do not depend on the budget."""
    psi = make_ln(n)
    phi = apply_chain(sample_chain(n, "G", 100 * n), psi).normalized()
    g = find_connector(psi, phi, restarts=restarts)
    assert g is not None
    assert fidelity(apply_chain(g, psi), phi) > 1 - 1e-8


def test_find_connector_rejects_zero_restarts():
    psi = sample_haar_state(4, 8)
    phi = apply_chain(sample_chain(4, "G", 9), psi).normalized()
    with pytest.raises(ValueError, match="restart"):
        find_connector(psi, phi, restarts=0)


def test_find_connector_rejects_negative_seed():
    # Haar four-qubit states take the exact path, which reads no seed
    psi = sample_haar_state(4, 8)
    phi = apply_chain(sample_chain(4, "G", 9), psi).normalized()
    with pytest.raises(ValueError, match="seed"):
        find_connector(psi, phi, seed=-1)


def test_find_connector_inequivalent_states():
    psi = make_ghz(4)
    phi = sample_haar_state(4, 10)
    assert find_connector(psi, phi, restarts=8, seed=0) is None


def test_find_connector_rejects_null_cone_input():
    from localsym import make_w
    with pytest.raises(ValueError):
        find_connector(make_w(3), make_ghz(3))


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 6), st.integers(0, 2**31 - 1), st.floats(-3.0, 3.0),
       st.floats(-np.pi, np.pi))
def test_pmax_invariant_under_chain_scaling(n, seed, log_modulus, phase):
    """g and c g give the same normalized target, hence the same p_max."""
    psi = sample_haar_state(n, seed)
    g = sample_chain(n, "G", seed + 1)
    c = 10.0 ** log_modulus * np.exp(1j * phase)
    factors = g.factors.copy()
    factors[0] *= c
    p = pmax(psi, g).p_max
    for scaled in (LocalOperatorChain(factors, "Gt"), LocalOperatorChain(g.factors, "G", scalar=c)):
        assert abs(pmax(psi, scaled).p_max - p) <= 1e-10 * p
