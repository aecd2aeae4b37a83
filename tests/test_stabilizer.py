import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from localsym import (
    LocalOperatorChain,
    PureState,
    apply_chain,
    lie_stabilizer_dim,
    discrete_stabilizer_search,
    phase_stabilizer_search,
    gtilde_triviality_probe,
    adjoint_closure_check,
    make_ghz,
    make_ln,
    make_w,
    make_gabcd,
    sample_chain,
    sample_haar_state,
)

from localsym import critical, stabilizer
from localsym.states import _PAULIS, _correlations, _ginibre, _haar_u2, derive_rng
from localsym.stabilizer import (_DEDUP_RADIUS, _chain_distance, _critical_angles, _overlaps,
                                 _starts, _su2_lift, _su2_step, _sweep_rows, _u2_step)

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, kron_all


def phase_aligned_distance(dense_a, dense_b):
    """Frobenius distance min over a global phase."""
    ov = np.trace(dense_b.conj().T @ dense_a)
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0
    return np.linalg.norm(dense_a - phase * dense_b)


@pytest.mark.parametrize("psi,expected", [
    (make_ln(2), 3),
    (make_ghz(3), 2),
    (make_w(3), 2),
    (make_ghz(4), 3),
    (make_ln(5), 0),
    (make_ln(6), 0),
])
def test_lie_dim_oracle_values(psi, expected):
    probe = lie_stabilizer_dim(psi)
    assert probe.lie_dim == expected
    assert probe.singular_values.shape == (3 * psi.n,)
    assert np.all(np.diff(probe.singular_values) <= 0)


def test_lie_dim_in_c_flag():
    assert lie_stabilizer_dim(make_ln(5)).in_c
    assert not lie_stabilizer_dim(make_ghz(3)).in_c  # lie_dim > 0
    assert not lie_stabilizer_dim(make_w(3)).in_c  # not critical


def test_lie_dim_clean_gap_on_generic_state():
    probe = lie_stabilizer_dim(make_gabcd(1, 2 + 1j, 3, 0.5))
    assert probe.lie_dim == 0
    assert probe.singular_values[-1] > 1e-2  # far above the cutoff


def test_lie_dim_requires_normalized():
    with pytest.raises(ValueError):
        lie_stabilizer_dim(make_w(3, normalized=False))


def test_discrete_search_recovers_pauli_strings():
    psi = make_gabcd(1, 2 + 1j, 3, 0.5)
    found = discrete_stabilizer_search(psi, restarts=32, seed=0)
    assert found, "expected the Pauli-string symmetries to be found"
    for _, residual in found:
        assert residual < 1e-8
    targets = [kron_all([p] * 4) for p in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
    for target in targets:
        dists = [phase_aligned_distance(kron_all(chain.factors), target)
                 for chain, _ in found]
        assert min(dists) < 1e-6


def test_discrete_search_preconditions():
    with pytest.raises(ValueError, match="criticality"):
        discrete_stabilizer_search(make_w(3))
    with pytest.raises(ValueError, match="lie_dim"):
        discrete_stabilizer_search(make_ghz(4))


def test_discrete_search_empty_on_generic_state():
    psi = sample_haar_state(5, 3)
    from localsym import scale_to_critical
    rep = scale_to_critical(psi).representative
    assert discrete_stabilizer_search(rep, restarts=8, seed=0) == []


def test_phase_search_finds_l5_witness():
    psi = make_ln(5)
    hits = phase_stabilizer_search(psi, 1j, restarts=16, seed=0)
    assert hits
    chain, residual = min(hits, key=lambda h: h[1])
    assert residual < 1e-6
    out = apply_chain(chain, psi)
    assert np.linalg.norm(out.amplitudes - 1j * psi.amplitudes) < 1e-6


def test_phase_search_rejects_nonunit_phase():
    with pytest.raises(ValueError):
        phase_stabilizer_search(make_ln(5), 2.0)


def test_phase_search_t1_excludes_identity():
    psi = make_ln(5)
    hits = phase_stabilizer_search(psi, 1.0, restarts=8, seed=0)
    assert hits == []


def test_adjoint_closure_on_witness():
    psi = make_gabcd(1, 2 + 1j, 3, 0.5)
    found = discrete_stabilizer_search(psi, restarts=32, seed=0)
    for chain, residual in found:
        fwd, bwd = adjoint_closure_check(psi, chain)
        assert fwd < 1e-8
        assert bwd <= 10 * max(fwd, 1e-15)


def test_adjoint_closure_requires_critical():
    with pytest.raises(ValueError):
        adjoint_closure_check(make_w(3), LocalOperatorChain(
            np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy(), "K"))


def test_probe_haar_n5_trivial():
    verdict = gtilde_triviality_probe(sample_haar_state(5, 11), restarts=16)
    assert verdict.verdict == "trivial"
    assert verdict.failed_gate is None
    assert verdict.probe.lie_dim == 0
    assert verdict.probe.discrete_candidates == []
    assert verdict.representative is not None


def test_probe_ghz4_nontrivial_by_lie_dim():
    verdict = gtilde_triviality_probe(make_ghz(4), restarts=4)
    assert verdict.verdict == "non_trivial"
    assert verdict.failed_gate == "lie_dim"
    assert verdict.probe.lie_dim == 3


def test_probe_gabcd_nontrivial_by_discrete_search():
    verdict = gtilde_triviality_probe(make_gabcd(1, 2 + 1j, 3, 0.5), restarts=32)
    assert verdict.verdict == "non_trivial"
    assert verdict.failed_gate == "discrete_search"
    assert len(verdict.probe.discrete_candidates) >= 1


def test_probe_w3_inconclusive_null_cone():
    verdict = gtilde_triviality_probe(make_w(3), restarts=2)
    assert verdict.verdict == "inconclusive"
    assert verdict.failed_gate == "critical_scaling:null_cone"
    assert verdict.probe is None


def test_probe_l5_nontrivial_by_phase_witness():
    verdict = gtilde_triviality_probe(make_ln(5), restarts=16)
    assert verdict.verdict == "non_trivial"
    assert verdict.failed_gate == "phase_search"
    assert verdict.probe.discrete_candidates == []
    assert verdict.probe.gtilde_phase_hits
    phases = {t for t, _, _ in verdict.probe.gtilde_phase_hits}
    assert phases <= {1j, -1j}


def test_probe_l6_inconclusive_f2_zero():
    verdict = gtilde_triviality_probe(make_ln(6), restarts=8)
    assert verdict.verdict == "inconclusive"
    assert verdict.failed_gate == "f2_zero"


def test_probe_requires_normalized():
    with pytest.raises(ValueError):
        gtilde_triviality_probe(make_w(3, normalized=False))


def test_searches_reject_nonpositive_tol():
    psi = make_gabcd(1, 2 + 1j, 3, 0.5)
    for search in (gtilde_triviality_probe, discrete_stabilizer_search,
                   lambda psi, **kw: phase_stabilizer_search(psi, 1j, **kw)):
        with pytest.raises(ValueError, match="tolerance"):
            search(psi, restarts=1, tol=0.0)


def test_probe_rejects_zero_restarts():
    with pytest.raises(ValueError, match="restart"):
        gtilde_triviality_probe(sample_haar_state(5, 0), restarts=0)


@pytest.mark.parametrize("psi", [make_ghz(4), make_w(3), make_ln(5)],
                         ids=["ghz4-lie-gate", "w3-null-cone", "l5-search"])
@pytest.mark.parametrize("budget,message", [({"restarts": 0}, "restart"),
                                            ({"tol": 0.0}, "tolerance")])
def test_probe_rejects_empty_budget_at_entry(psi, budget, message):
    # GHZ4 and W3 stop at a gate before any search, so only an entry check sees the budget
    with pytest.raises(ValueError, match=message):
        gtilde_triviality_probe(psi, **budget)


def count_moments(monkeypatch, call) -> int:
    calls = []
    kernel = critical._moments
    monkeypatch.setattr(critical, "_moments", lambda *a: calls.append(1) or kernel(*a))
    call()
    return len(calls)


def test_search_preconditions_compute_reductions_once(monkeypatch):
    """One criticality check per search: n one-qubit moments, not 2n."""
    gabcd, l5 = make_gabcd(1, 2 + 1j, 3, 0.5), make_ln(5)
    assert count_moments(monkeypatch, lambda: discrete_stabilizer_search(
        gabcd, restarts=1)) == 4
    assert count_moments(monkeypatch, lambda: phase_stabilizer_search(
        l5, 1j, restarts=1)) == 5
    # L5 is critical, so scaling stops at its first check and nothing re-checks it
    assert count_moments(monkeypatch, lambda: gtilde_triviality_probe(
        l5, restarts=1)) == 5


def svd_su2_procrustes(m):
    """Reference: u in SU(2) maximizing Re Tr(u m) from the SVD of m."""
    u_l, s, vh = np.linalg.svd(m)
    if s[0] == 0.0:
        return np.eye(2, dtype=complex)
    # u = vh^H diag(e^{i th1}, e^{i th2}) u_l^H with th1 + th2 fixed by det(u) = 1
    phi = -np.angle(np.linalg.det(vh.conj().T @ u_l.conj().T))
    th1 = np.arctan2(s[1] * np.sin(phi), s[0] + s[1] * np.cos(phi))
    d = np.exp(1j * np.array([th1, phi - th1]))
    return (vh.conj().T * d) @ u_l.conj().T


def svd_u2_procrustes(m):
    """Reference: u in U(2) maximizing Re Tr(u m), V W^H for m = W S V^H."""
    w, _, vh = np.linalg.svd(m)
    return (w @ vh).conj().T


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
@example([0.0] * 8)  # m = 0
@example([0.5, 0.25, 0.0, 0.0, 0.0, 0.0, 0.5, 0.25])  # rank one: (1, i)^T (0.5, 0.25)
def test_su2_step_matches_svd_reference(entries):
    m = (np.array(entries[:4]) + 1j * np.array(entries[4:])).reshape(2, 2)
    u = _su2_step(m)
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-12
    assert abs(np.linalg.det(u) - 1.0) < 1e-12
    best = np.trace(svd_su2_procrustes(m) @ m).real
    assert abs(np.trace(u @ m).real - best) < 1e-12
    # the U(2) step, as used by the connector alignment
    u = _u2_step(m)
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-12
    best = np.trace(svd_u2_procrustes(m) @ m).real
    assert abs(np.trace(u @ m).real - best) < 1e-12


def probe_outcome(psi):
    verdict = gtilde_triviality_probe(psi, seed=5)
    return verdict.verdict, verdict.failed_gate, verdict.probe.lie_dim


@pytest.mark.parametrize("n", [3, 5, 6])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_probe_invariant_under_local_unitaries_and_permutations(n, seed):
    """The stabilizer of u psi, and of psi with its qubits permuted, is
    conjugate to that of psi, so the verdict cannot change."""
    psi = sample_haar_state(n, seed)
    rotated = apply_chain(sample_chain(n, "Kt", seed + 1), psi)
    perm = np.random.default_rng(seed + 2).permutation(n)
    permuted = PureState(n, psi.tensor().transpose(perm).reshape(-1))
    outcome = probe_outcome(psi)
    assert probe_outcome(rotated) == outcome
    assert probe_outcome(permuted) == outcome


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_search_rows_do_not_depend_on_batch_size(seed):
    # gabcd takes the exact path, L4 (T_12 proportional to the identity) the
    # random one, L5 the circle path, whose 24 samples are then cut into chunks
    for psi, t in ((make_gabcd(1, 2 + 1j, 3, 0.5), 1.0), (make_ln(4), 1.0), (make_ln(5), 1j)):
        few = phase_stabilizer_search(psi, t, restarts=8, seed=seed)
        many = phase_stabilizer_search(psi, t, restarts=32, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stabilizer, "_BATCH_BYTES", 5 * 16 * psi.dim)  # 5 rows a chunk
            chunked = phase_stabilizer_search(psi, t, restarts=32, seed=seed)
        assert many
        assert [c.factors.tolist() for c, _ in chunked] == [c.factors.tolist() for c, _ in many]
        for chain, _ in few:
            assert min(_chain_distance(chain.factors, other.factors)
                       for other, _ in many) < _DEDUP_RADIUS


def l5_hit_row():
    """The circle-path start row of L5 on its hit at t = i."""
    psi = make_ln(5)
    start, path = _starts(psi, psi, 32, 0, True)
    assert path == "pair_circle"
    return psi, start[np.argmax((-1j * _overlaps(start, psi, psi)).real)]


def test_rows_starting_on_a_hit_keep_their_start():
    psi, row = l5_hit_row()
    start = np.stack([row, _haar_u2(_ginibre(derive_rng(0), (5,)), True)])
    factors, residual = _sweep_rows(psi.amplitudes, psi.amplitudes, np.array([1j, 1j]),
                                    start.copy(), _su2_step)
    assert factors[0].tobytes() == start[0].tobytes()
    assert residual[0] < 1e-14
    assert not np.array_equal(factors[1], start[1])  # the Haar row is swept


def test_circle_row_started_off_its_hit_is_swept_onto_it():
    psi, row = l5_hit_row()
    row[0] = np.diag(np.exp([-1e-12j, 1e-12j])) @ row[0]
    out = apply_chain(LocalOperatorChain(row, "K"), psi).amplitudes
    assert 1e-13 < np.linalg.norm(out - 1j * psi.amplitudes) < 1e-10
    factors, residual = _sweep_rows(psi.amplitudes, psi.amplitudes, np.array([1j]),
                                    row[None].copy(), _su2_step)
    assert residual[0] < 1e-14
    assert not np.array_equal(factors[0], row)


def test_l4_random_path_witnesses():
    """L4 has T_12 proportional to the identity, so its rows are Haar starts,
    none on a hit; the search finds its three unitary symmetries."""
    def su2(a, b):
        return np.array([[a, b], [-np.conj(b), np.conj(a)]])

    a, b = 1j / np.sqrt(3), 1 / np.sqrt(2) + 1j / np.sqrt(6)
    expected = [np.stack([w] * 4) for w in
                (su2(a, b), su2(-a, 1j * np.sqrt(2 / 3)), su2(a, -np.conj(b)))]
    assert _starts(make_ln(4), make_ln(4), 32, 0, True)[1] == "random"
    assert_same_chains([c.factors for c, _ in discrete_stabilizer_search(make_ln(4))], expected)


# ---------------------------------------------------------------------------
# starts from two-qubit correlation tensors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 5])
def test_correlations_match_dense_oracle(n):
    psi = sample_haar_state(n, 40 + n)
    amp = 2.0 * psi.amplitudes  # the tensors are those of the normalized state
    tensors = _correlations(amp, n)
    assert tensors.shape == (n - 1, 3, 3)
    for k in range(2, n + 1):
        for a, sa in enumerate(_PAULIS):
            for b, sb in enumerate(_PAULIS):
                ops = [np.eye(2)] * n
                ops[0], ops[k - 1] = sa, sb
                dense = np.vdot(psi.amplitudes, kron_all(ops) @ psi.amplitudes).real
                assert abs(tensors[k - 2, a, b] - dense) < 1e-12


def test_su2_lift_conjugates_paulis_by_the_rotation():
    """u sigma_b u^dag = sum_a R[a, b] sigma_a; the inverse convention would
    still pass every self-symmetry test, as the candidate set is a group."""
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((200, 3, 3)))
    rot = q * np.sign(np.linalg.det(q))[:, None, None]
    # half-turns: trace -1, the branch where the quaternion's scalar part vanishes
    rot = np.concatenate([rot, [np.diag([1.0, -1, -1]), np.diag([-1.0, 1, -1]),
                                np.diag([-1.0, -1, 1]), np.eye(3)]])
    u = _su2_lift(rot)
    assert np.max(abs(np.linalg.det(u) - 1)) < 1e-12
    moved = np.einsum("rij,bjk,rlk->rbil", u, _PAULIS, u.conj())
    assert np.max(abs(moved - np.einsum("rab,aij->rbij", rot, _PAULIS))) < 1e-12


def analytic_hits(n, t):
    """diag(a, conj a) with a^(2n - 2) = 1 and a^(n - 2) = t, one of each
    pair a, -a: the symmetries u L_n = t L_n of this form, each factor up
    to sign.  A sign on one factor moves t to -t, so a^(n - 2) = -t counts
    as well, and the identity is no hit at t = 1."""
    roots = np.exp(1j * np.pi * np.arange(n - 1) / (n - 1))  # a^(2n - 2) = 1, up to sign
    return [np.diag([a, np.conj(a)]) for a in roots
            if abs(a ** (2 * n - 4) - t * t) < 1e-9 and not (t == 1 and a == 1)]


def has_analytic_hit(n, hits):
    """Some hit is an analytic symmetry of L_n at t = i."""
    return any(_chain_distance(chain.factors, d) < 1e-6
               for chain, _ in hits for d in analytic_hits(n, 1j))


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("seed", [1810563169, 1065909897])
def test_ln_phase_witness_at_seeds_where_random_starts_missed(n, seed):
    """At these seeds 32 Haar starts found no hit for L5 at t = i."""
    assert has_analytic_hit(n, phase_stabilizer_search(make_ln(n), 1j, seed=seed))


@pytest.mark.parametrize("psi,path", [(make_gabcd(1, 2 + 1j, 3, 0.5), "pair_exact"),
                                      (make_ln(5), "pair_circle"),
                                      (make_ln(7), "pair_circle"),
                                      (make_ln(4), "random")],
                         ids=["gabcd", "L5", "L7", "L4"])
def test_start_paths(psi, path):
    assert _starts(psi, psi, 8, 0, True)[1] == path


@settings(max_examples=5, deadline=None)
@given(st.integers(1, 2**31 - 1))
def test_exact_and_circle_hits_do_not_depend_on_seed(seed):
    gabcd, l5 = make_gabcd(1, 2 + 1j, 3, 0.5), make_ln(5)
    for search in (lambda s, r=32: discrete_stabilizer_search(gabcd, restarts=r, seed=s),
                   lambda s, r=32: phase_stabilizer_search(l5, 1j, restarts=r, seed=s)):
        expected = [c.factors.tobytes() for c, _ in search(0)]
        for restarts in (1, 8, 32):
            assert [c.factors.tobytes() for c, _ in search(seed, restarts)] == expected


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("restarts", [1, 2, 3, 4])
def test_ln_probe_finds_phase_witness_at_any_budget(n, restarts):
    """Sampling the circle at 1 to 3 angles missed the witness at theta = pi,
    and the probe returned inconclusive (f4_zero)."""
    verdict = gtilde_triviality_probe(make_ln(n), restarts=restarts)
    assert (verdict.verdict, verdict.failed_gate) == ("non_trivial", "phase_search")
    assert verdict.probe.start_path == "pair_circle"


@pytest.mark.parametrize("n", [5, 6, 7, 8])
@pytest.mark.parametrize("t", [1.0, 1j, -1j])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
@example(seed=10227)  # L7 at t = i: rounding noise in the top coefficients hid theta = pi
def test_ln_hits_are_exactly_the_analytic_symmetries(n, t, seed):
    """The circle path enumerates every symmetry of L_n at phase t, also
    conjugated by a random local unitary k: the hits of k L_n are k d k^dag."""
    k = sample_chain(n, "K", seed).factors
    expected = analytic_hits(n, t)
    for psi, moved in ((make_ln(n), expected),
                       (apply_chain(LocalOperatorChain(k, "K"), make_ln(n)),
                        [k @ d @ k.conj().swapaxes(-1, -2) for d in expected])):
        assert_same_chains([c.factors for c, _ in phase_stabilizer_search(psi, t)], moved)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_circle_rows_start_on_their_hits(n, monkeypatch):
    """Every swept circle row starts within 1e-12 of a hit, up to a factor
    sign: the candidate angles are exact, so each hit costs at most one sweep."""
    psi, starts, sweep = make_ln(n), [], stabilizer._sweep_rows

    def recording(amplitudes, target, phases, factors, step):
        starts.append((phases, factors.copy()))
        return sweep(amplitudes, target, phases, factors, step)

    monkeypatch.setattr(stabilizer, "_sweep_rows", recording)
    for t in (1.0, 1j, -1j):
        phase_stabilizer_search(psi, t)
    assert starts
    for phases, factors in starts:
        for t, fac in zip(phases, factors):
            out = apply_chain(LocalOperatorChain(fac, "K"), psi).amplitudes
            assert min(np.linalg.norm(out - s * t * psi.amplitudes) for s in (1, -1)) <= 1e-12


@pytest.mark.parametrize("index", range(6))
def test_circle_path_finds_the_exact_paths_symmetries(index, monkeypatch):
    """Forcing a Haar four-qubit representative onto the circle path (a
    gap tolerance between the two gaps of T_12) leaves h = sum ||R_k^T R_k
    - I||^2 non-zero, so its zeros must yield the three Pauli-type hits."""
    verdict = gtilde_triviality_probe(sample_haar_state(4, derive_rng(1, index, 0)))
    rep = verdict.representative
    sv = np.linalg.svd(_correlations(rep.amplitudes, 4)[0], compute_uv=False)
    gaps = -np.diff(sv) / sv[0]
    monkeypatch.setattr(stabilizer, "_GAP_TOL", np.sqrt(gaps[0] * gaps[1]))
    assert _starts(rep, rep, 32, 0, True)[1] == "pair_circle"
    found = discrete_stabilizer_search(rep)
    assert_same_chains([c.factors for c, _ in found],
                       [c.factors for c, _ in verdict.probe.discrete_candidates])


def trig_poly(coef, theta, order=0):
    """The order-th derivative of sum_k coef[k] e^(i k theta), k = -D..D."""
    k = np.arange(coef.size) - coef.size // 2
    return (np.exp(1j * np.outer(theta, k)) @ ((1j * k) ** order * coef)).real


@pytest.mark.parametrize("degree,size", [(1, 4), (4, 10), (4, 18), (7, 16)])
@pytest.mark.parametrize("seed", range(4))
def test_critical_angles_match_dense_evaluation(degree, size, seed):
    """Every sign change of f' on a dense grid holds a returned angle, and
    f' vanishes at every returned angle; size / 2 - 1 may exceed the degree."""
    rng = np.random.default_rng(seed)
    half = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    coef = np.concatenate([half[::-1].conj(), [rng.standard_normal()], half])
    theta = _critical_angles(trig_poly(coef, 2 * np.pi * np.arange(size) / size))
    scale = np.abs(coef).sum() * degree
    assert np.all(abs(trig_poly(coef, theta, 1)) < 1e-12 * scale)
    grid = np.linspace(-np.pi, np.pi, 20001)
    flips = np.nonzero(np.diff(np.sign(trig_poly(coef, grid, 1))))[0]
    assert flips.size >= 2
    for lo in flips:
        assert np.any((np.mod(theta - grid[lo], 2 * np.pi) <= grid[1] - grid[0]))


@pytest.mark.parametrize("size_degree", [4, 5, 6, 7, 8])
def test_critical_angles_of_degree_deficient_polynomials(size_degree):
    """cos(d (theta - theta0)) with d < D sampled for degree D: all 2d
    critical points, although the top coefficients of f' are rounding noise."""
    rng = np.random.default_rng(size_degree)
    size = 2 * size_degree + 2
    for _ in range(100):
        d, theta0 = rng.integers(1, size_degree), rng.uniform(0, 2 * np.pi)
        theta = _critical_angles(np.cos(d * (2 * np.pi * np.arange(size) / size - theta0)))
        expected = theta0 + np.pi * np.arange(2 * d) / d
        gaps = abs(np.angle(np.exp(1j * (theta[:, None] - expected))))
        assert np.max(np.min(gaps, axis=0)) < 1e-9


def test_critical_angles_of_a_constant():
    assert _critical_angles(np.zeros(10)).tolist() == [0.0]
    theta = _critical_angles(np.full(10, 0.7))
    assert theta.size and np.all(np.isfinite(theta))


def test_probe_computes_correlations_once(monkeypatch):
    calls = []
    tensors = stabilizer._correlations
    monkeypatch.setattr(stabilizer, "_correlations", lambda *a: calls.append(1) or tensors(*a))
    assert gtilde_triviality_probe(make_ln(5)).probe.start_path == "pair_circle"
    assert len(calls) == 1


@pytest.mark.parametrize("index", range(10))
def test_haar_n4_states_have_three_unitary_symmetries(index):
    """Generic four-qubit states have the Klein group of Pauli-type
    symmetries; random starts missed all three at index 3."""
    verdict = gtilde_triviality_probe(sample_haar_state(4, derive_rng(1, index, 0)))
    assert (verdict.verdict, verdict.failed_gate) == ("non_trivial", "discrete_search")
    assert verdict.probe.start_path == "pair_exact"
    rep, found = verdict.representative, verdict.probe.discrete_candidates
    assert len(found) == 3
    for chain, _ in found:
        dense = kron_all(chain.factors)
        assert np.linalg.norm(dense @ rep.amplitudes - rep.amplitudes) < 1e-8
        fwd, bwd = adjoint_closure_check(rep, chain)
        assert bwd <= 10 * max(fwd, 1e-15)


def assert_same_chains(found, expected):
    assert len(found) == len(expected)
    for chain in expected:
        assert min(_chain_distance(chain, other) for other in found) < 1e-6


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_hits_are_conjugated_by_local_unitaries(seed):
    """The hits of k psi are k h k^dag over the hits h of psi, up to sign
    per factor: a wrong index order in the correlation tensors breaks this."""
    gabcd, l5 = make_gabcd(1, 2 + 1j, 3, 0.5), make_ln(5)
    for psi, search in ((gabcd, discrete_stabilizer_search),
                        (l5, lambda psi: phase_stabilizer_search(psi, 1j))):
        k = sample_chain(psi.n, "K", seed).factors
        hits = [c.factors for c, _ in search(psi)]
        moved = [c.factors for c, _ in search(apply_chain(LocalOperatorChain(k, "K"), psi))]
        assert_same_chains(moved, [k @ h @ k.conj().swapaxes(-1, -2) for h in hits])
