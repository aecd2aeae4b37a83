import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from localsym import (
    LocalOperatorChain,
    PureState,
    apply_chain,
    fidelity,
    pmax,
    build_protocol,
    simulate_protocol,
    find_connector,
    make_ghz,
    make_ln,
    sample_chain,
    sample_haar_state,
)

from localsym import convert, stabilizer, states
from localsym.convert import ProtocolRunStats, _rescaled_connector
from localsym.states import _apply_factors, _apply_next, _unitary_deviation, derive_rng
from conftest import assert_passes_constructor, count_calls, kron_all


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


def test_pmax_rejects_ill_conditioned_unit_determinant_factor():
    """diag(1e7, 1e-7) has det 1, so tag G takes it, but |det| < 1e-12 ||g||^2."""
    factors = np.broadcast_to(np.eye(2, dtype=complex), (5, 2, 2)).copy()
    factors[2] = np.diag([1e7, 1e-7])
    with pytest.raises(ValueError):
        pmax(make_ln(5), LocalOperatorChain(factors, "G"))


def test_singular_factor_rejected_at_chain_construction():
    factors = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy()
    factors[1] = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        LocalOperatorChain(factors, "Gt")
    # an all-zero factor has det 0 = 2e-12 ||g||_F**2 / 2 exactly: on the bound, rejected
    factors[1] = 0.0
    with pytest.raises(ValueError, match="tag Gt requires invertible factors"):
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


def test_protocol_rejects_a_state_of_another_size():
    plan = build_protocol(make_ln(5), diag_chain_l5())
    with pytest.raises(ValueError, match="plan acts on 5 qubits, state has 6"):
        simulate_protocol(plan, make_ln(6), trials=10)


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
    # ||(x)_j N0_j psi||^2 is 1 up to rounding and exceeds 1 by a few ulps
    # for four of these states; the draw must clip it, not raise
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
    """p_max = 1 exactly when the rescaled connector is factor-wise unitary."""
    psi = sample_haar_state(4, 6)
    plan = pmax(psi, sample_chain(4, "K", 7))
    assert abs(plan.p_max - 1.0) <= 1e-12
    assert _unitary_deviation(plan.connector.factors) <= 1e-10
    bad_factors = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2)).copy()
    bad_factors[0] = np.diag([2.0, 0.5])
    plan = pmax(psi, LocalOperatorChain(bad_factors, "G"))
    assert plan.p_max < 1.0
    assert _unitary_deviation(plan.connector.factors) > 1e-10


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


def assert_connects(psi, phi, **budget):
    g = find_connector(psi, phi, **budget)
    assert g is not None
    assert fidelity(apply_chain(g, psi), phi) > 1 - 1e-8


@settings(max_examples=15, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2**31 - 1))
@example(3, 0)
@example(3, 1)
@example(3, 2)
@example(3, 3)
@example(3, 4)
@example(3, 5)
@example(3, 6)
@example(3, 7)
@example(3, 8)
@example(3, 9)
def test_find_connector_on_random_g_orbits(n, seed):
    """phi = g psi / ||g psi|| is connected to psi by construction.  At n = 3
    the stabilizer is positive-dimensional, so the Gram matrix of the Pauli
    images that the polish inverts is singular, and the starts are Haar SU(2)^n
    rows at a free phase."""
    psi = sample_haar_state(n, seed)
    assert_connects(psi, apply_chain(sample_chain(n, "G", seed + 1), psi).normalized())


def test_find_connector_on_an_l4_g_orbit():
    """T_12 of L4 is proportional to the identity, so its starts are Haar rows."""
    psi = make_ln(4)
    assert_connects(psi, apply_chain(sample_chain(4, "G", 400), psi).normalized(), restarts=32)


def test_connector_row_at_the_rounding_floor_stops(monkeypatch):
    """The polished row of this pair hovers at 1.0e-14, just above the stop
    rule, with rounding noise; counting stalls against the previous step's
    residual instead of the best one let it run for all 1000 steps, and
    without the stationary-row stop it took 8 idle steps after the floor."""
    steps = []
    images = stabilizer._pauli_images
    monkeypatch.setattr(stabilizer, "_pauli_images", lambda *a: steps.append(1) or images(*a))
    psi = sample_haar_state(8, 316)
    phi = apply_chain(sample_chain(8, "G", 416), psi).normalized()
    assert find_connector(psi, phi) is not None
    assert len(steps) <= 3


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


def test_find_connector_rejects_states_of_different_sizes():
    with pytest.raises(ValueError, match="psi has 5 qubits, phi has 6"):
        find_connector(sample_haar_state(5, 0), sample_haar_state(6, 0))


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


_TAGS = ("G", "Gt", "K", "Kt")


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.sampled_from(_TAGS), st.integers(0, 2**31 - 1),
       st.floats(0.05, 3.0), st.sampled_from([-1.0, 1.0]), st.floats(-np.pi, np.pi))
def test_pmax_from_one_product(n, tag, seed, log_modulus, sign, phase):
    """p_max and lambda_j equal, bitwise, those of the factors rescaled by ||g psi||, and
    the target, normalized from that same product, is the rescaled connector's g psi."""
    psi = sample_haar_state(n, seed)
    base = sample_chain(n, tag, seed + 1)
    chain = LocalOperatorChain(base.factors, base.group_tag,
                               scalar=10.0 ** (sign * log_modulus) * np.exp(1j * phase))
    plan = pmax(psi, chain)
    scale = (abs(chain.scalar) / apply_chain(chain, psi).norm()) ** (1.0 / n)
    fac = chain.factors * scale
    lam = np.linalg.eigvalsh(np.transpose(fac.conj(), (0, 2, 1)) @ fac)[:, -1]
    assert plan.connector.factors.tobytes() == fac.tobytes()
    assert plan.per_party_lambda.tobytes() == lam.tobytes()
    assert plan.p_max == float(1.0 / np.prod(lam))
    assert abs(plan.target.norm() - 1.0) <= 1e-14
    assert np.max(np.abs(plan.target.amplitudes
                         - apply_chain(plan.connector, psi).amplitudes)) <= 1e-14


def _walk_reference(plan, psi, trials, seed):
    """The per-party walk: party j's conditional success probability from the
    state renormalized after parties 1..j-1, and the final branch state."""
    cond_p = np.empty(psi.n)
    t = psi.amplitudes.reshape(2, -1)
    for j, (n0, _) in enumerate(plan.measurements):
        t = _apply_next(n0, t)
        nrm = np.linalg.norm(t)
        cond_p[j] = nrm**2
        t = t / nrm
    final = PureState(psi.n, complex(plan.connector.scalar) * t.reshape(-1))
    p = min(1.0, float(np.prod(cond_p)))
    return int(derive_rng(seed).binomial(trials, p)), fidelity(final, plan.target)


@pytest.mark.parametrize("tag", _TAGS)
@pytest.mark.parametrize("n", range(2, 9))
def test_simulation_matches_per_party_walk(n, tag):
    """One product of the N0 stack draws the same counts as the per-party walk,
    also for Kt connectors, whose success probability the draw clips to 1."""
    psi = sample_haar_state(n, 300 + n)
    plan = build_protocol(psi, sample_chain(n, tag, 400 + n))
    for seed in range(20):
        stats = simulate_protocol(plan, psi, 10**6, seed)
        successes, fid = _walk_reference(plan, psi, 10**6, seed)
        assert stats.successes == successes
        assert abs(stats.mean_success_fidelity - fid) <= 1e-12


def test_pmax_applies_the_chain_once(monkeypatch):
    """The rescale and the target come from one product: n factor applications."""
    calls = []
    monkeypatch.setattr(states, "_apply_next", lambda *a: calls.append(1) or _apply_next(*a))
    pmax(sample_haar_state(5, 11), sample_chain(5, "G", 12))
    assert len(calls) == 5


def _reference_rescaled_connector(psi, chain):
    """The rescale as first written: g psi through ``apply_chain``, a state."""
    out = apply_chain(chain, psi)
    out_norm = out.norm()
    if out_norm == 0.0:
        raise ValueError("g psi underflows to zero; rescale the chain's factors")
    scale = (abs(chain.scalar) / out_norm) ** (1.0 / chain.n)
    g = LocalOperatorChain(chain.factors * scale, "Gt", scalar=chain.scalar / abs(chain.scalar))
    return g, PureState(psi.n, out.amplitudes / out_norm)


def _reference_simulate_protocol(plan, psi, trials, seed):
    """The simulation as first written, past its argument checks: the branch and
    its normalized copy as states, the success fidelity through ``fidelity``."""
    branch = PureState(psi.n, _apply_factors(np.stack([n0 for n0, _ in plan.measurements]),
                                             psi.amplitudes))
    nrm = branch.norm()
    success_fid = fidelity(PureState(psi.n, branch.amplitudes / nrm), plan.target)
    if trials == 0:
        return ProtocolRunStats(0, 0, None, None, seed)
    successes = int(derive_rng(seed).binomial(trials, min(1.0, nrm**2)))
    return ProtocolRunStats(trials, successes, successes / trials,
                            success_fid if successes else None, seed)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.sampled_from(_TAGS), st.integers(0, 2**31 - 1),
       st.floats(0.05, 3.0), st.sampled_from([-1.0, 1.0]), st.floats(-np.pi, np.pi))
def test_plan_matches_state_building_reference(n, tag, seed, log_modulus, sign, phase):
    """g psi straight from the kernel and the branch read as an array give the
    reference's connector and target bitwise, its counts exactly and its success
    fidelity within 1e-14, for scalars of modulus 10^-3..10^-0.05 and 10^0.05..10^3."""
    psi = sample_haar_state(n, seed)
    base = sample_chain(n, tag, seed + 1)
    chain = LocalOperatorChain(base.factors, base.group_tag,
                               scalar=10.0 ** (sign * log_modulus) * np.exp(1j * phase))
    g_ref, target_ref = _reference_rescaled_connector(psi, chain)
    plan = build_protocol(psi, chain)
    for g, target in (_rescaled_connector(psi, chain.factors, chain.scalar),
                      (plan.connector, plan.target)):
        assert g.factors.tobytes() == g_ref.factors.tobytes()
        assert g.scalar == g_ref.scalar
        assert target.amplitudes.tobytes() == target_ref.amplitudes.tobytes()
    for sim_seed in range(5):
        for trials in (0, 1, 10**6):
            stats = simulate_protocol(plan, psi, trials, sim_seed)
            ref = _reference_simulate_protocol(plan, psi, trials, sim_seed)
            assert (stats.trials, stats.successes, stats.empirical_p, stats.seed) == (
                ref.trials, ref.successes, ref.empirical_p, ref.seed)
            assert (stats.mean_success_fidelity is None) == (ref.mean_success_fidelity is None)
            if ref.mean_success_fidelity is not None:
                assert abs(stats.mean_success_fidelity - ref.mean_success_fidelity) <= 1e-14


def test_plan_builds_only_the_states_it_returns(monkeypatch):
    """pmax, build_protocol and simulate_protocol build two states, the targets of
    the two rescales (the state-building reference built six), in 3n factor
    applications; zero trials apply no factor.  States are counted on both
    construction paths, the checked constructor and the unchecked ``_built``."""
    n = 6
    psi, chain = sample_haar_state(n, 13), sample_chain(n, "G", 14)
    built, calls = [], []
    post_init = PureState.__post_init__
    monkeypatch.setattr(PureState, "__post_init__", lambda self: built.append(1) or post_init(self))
    for module in (states, convert):
        monkeypatch.setattr(module, "_built", lambda cls, f=module._built, **kw:
                            (cls is PureState and built.append(1)) or f(cls, **kw))
    monkeypatch.setattr(states, "_apply_next", lambda *a: calls.append(1) or _apply_next(*a))
    pmax(psi, chain)
    plan = build_protocol(psi, chain)
    simulate_protocol(plan, psi, 10**4, seed=1)
    assert len(built) == 2
    assert len(calls) == 3 * n
    built.clear()
    calls.clear()
    assert simulate_protocol(plan, psi, 0, seed=2) == ProtocolRunStats(0, 0, None, None, 2)
    assert built == calls == []


_EYES = np.broadcast_to(np.eye(2), (5, 2, 2))


@pytest.mark.parametrize("chain,message", [
    (sample_chain(4, "G", 0), "acts on 4 qubits, state has 5"),
    (LocalOperatorChain(1e-150 * _EYES, "Gt"), "underflows"),
    (LocalOperatorChain(1e70 * _EYES, "Gt"), "is not finite"),
    (LocalOperatorChain(10.0 * _EYES, "Gt", scalar=1e308), "is not finite"),
], ids=["n-mismatch", "underflow", "overflow-in-factors", "overflow-in-scalar"])
def test_rescale_errors_raise_without_warnings(chain, message):
    """g psi that cannot be rescaled is a ValueError, not a RuntimeWarning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            pmax(make_ln(5), chain)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.sampled_from(["G", "Gt", "K", "Kt"]), st.integers(0, 2**32 - 1))
def test_connector_and_target_pass_the_public_constructors(n, tag, seed):
    """The rescaled connector and the target ``pmax`` builds without a check pass
    ``LocalOperatorChain(..., "Gt")`` and ``PureState(...)`` bit for bit."""
    psi, chain = sample_haar_state(n, seed), sample_chain(n, tag, seed + 1)
    plan = pmax(psi, chain)
    assert plan.connector.group_tag == "Gt"
    for built in (plan.connector, plan.target):
        assert_passes_constructor(built, psi.amplitudes, chain.factors)


@pytest.mark.parametrize("n,seed", [(3, 0), (4, 1), (5, 2), (6, 3), (4, 6)])
def test_find_connector_result_passes_the_public_constructor(n, seed):
    psi = sample_haar_state(n, seed)
    phi = apply_chain(sample_chain(n, "G", seed + 10), psi).normalized()
    g = find_connector(psi, phi, seed=seed)
    assert g is not None
    assert_passes_constructor(g, psi.amplitudes, phi.amplitudes)


def test_pmax_runs_one_determinant_pass(monkeypatch):
    """Counts, not timings: pmax on a G chain tests the rescaled connector's Gt
    rule once and re-checks nothing else."""
    psi, chain = sample_haar_state(5, 3), sample_chain(5, "G", 4)
    assert count_calls(monkeypatch, lambda: pmax(psi, chain), "_det_rejected") == 1
    assert count_calls(monkeypatch, lambda: pmax(psi, chain), "_unitary_deviation") == 0
