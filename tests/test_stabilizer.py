import dataclasses
import sys

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
    find_connector,
    make_ghz,
    make_ln,
    make_w,
    make_gabcd,
    sample_chain,
    sample_haar_state,
)

from localsym import critical, stabilizer
from localsym import states
from localsym.states import (_PAULIS, _apply_factors, _correlations, _ginibre, _haar_u2,
                             _pauli_images, _pauli_tables, derive_rng)
from localsym.genericity import genericity_report
from localsym.stabilizer import (_DEDUP_RADIUS, _IDENTITY_EXCLUSION_RADIUS, _align,
                                 _chain_distance, _critical_angles, _polish_rows,
                                 _starts, _su2, _su2_lift)

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


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 6), st.integers(0, 2**31 - 1))
def test_singular_values_invariant_under_local_unitaries(n, seed):
    """The Pauli images are an orthonormal basis of sl(2, C) on each qubit: a
    local unitary rotates them by an SO(3) matrix per qubit and a qubit
    permutation permutes them, so the tangent singular values stay put."""
    psi = sample_haar_state(n, derive_rng(seed, 0))
    moved = apply_chain(sample_chain(n, "K", derive_rng(seed, 1)), psi)
    perm = derive_rng(seed, 2).permutation(n)
    moved = PureState(n, moved.tensor().transpose(perm).reshape(-1))
    before = lie_stabilizer_dim(psi).singular_values
    after = lie_stabilizer_dim(moved).singular_values
    assert np.max(abs(after - before)) <= 1e-12 * before[0]


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


@pytest.mark.parametrize("t", [complex("nan"), complex(1, np.nan), complex("inf")])
def test_phase_search_rejects_non_finite_phase(t):
    """NaN has no unit modulus either; it must not read as 'no symmetry'."""
    with pytest.raises(ValueError, match="unit modulus"):
        phase_stabilizer_search(make_ln(5), t)


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
    # gabcd has three Pauli symmetries: a NaN tol would keep none of them (a
    # "trivial" verdict) and an infinite one every swept row as a witness
    psi = make_gabcd(1, 2 + 1j, 3, 0.5)
    for search in (gtilde_triviality_probe, discrete_stabilizer_search,
                   lambda psi, **kw: phase_stabilizer_search(psi, 1j, **kw)):
        for tol in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="tolerance"):
                search(psi, restarts=1, tol=tol)


def test_probe_rejects_zero_restarts():
    with pytest.raises(ValueError, match="restart"):
        gtilde_triviality_probe(sample_haar_state(5, 0), restarts=0)


@pytest.mark.parametrize("psi", [make_ghz(4), make_w(3), make_ln(5), make_ln(4)],
                         ids=["ghz4-lie-gate", "w3-null-cone", "l5-search", "l4-random"])
@pytest.mark.parametrize("budget,message", [({"restarts": 0}, "restart"),
                                            ({"tol": 0.0}, "tolerance"),
                                            ({"seed": -1}, "seed")])
def test_probe_rejects_empty_budget_at_entry(psi, budget, message):
    # GHZ4 and W3 stop at a gate before any search, so only an entry check sees the
    # budget; the circle path of L5 reads no seed, the random path of L4 does
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
    # L5 is critical, so scaling stops at its first check and nothing re-checks it;
    # in the Newton range that check reads the gathered Bloch vectors, no moments
    assert count_moments(monkeypatch, lambda: gtilde_triviality_probe(
        l5, restarts=1)) == 0


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
    # random one, L5 the circle path, whose start rows are then cut into chunks
    for psi, t in ((make_gabcd(1, 2 + 1j, 3, 0.5), 1.0), (make_ln(4), 1.0), (make_ln(5), 1j)):
        few = phase_stabilizer_search(psi, t, restarts=8, seed=seed)
        many = phase_stabilizer_search(psi, t, restarts=32, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            # 5 rows a chunk: a chunk holds each row's 3n Pauli images
            mp.setattr(stabilizer, "_BATCH_BYTES", 5 * 16 * 3 * psi.n * psi.dim)
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
    return psi, start[np.argmax((-1j * _apply_factors(start, psi.amplitudes)
                                 @ psi.amplitudes.conj()).real)]


def test_rows_starting_on_a_hit_keep_their_start(monkeypatch):
    """_align keeps a row that starts below 1e-14 as it is: only the Haar row
    enters _polish_rows."""
    psi, row = l5_hit_row()
    start = np.stack([row, _haar_u2(_ginibre(derive_rng(0), (5,)), True)])
    polished, polish = [], stabilizer._polish_rows
    monkeypatch.setattr(stabilizer, "_starts", lambda *a: (start.copy(), "random"))
    monkeypatch.setattr(stabilizer, "_polish_rows",
                        lambda *a: polished.append(len(a[3])) or polish(*a))
    factors, residual, _ = _align(psi, psi, (1j,), 2, 0, special=True)
    assert factors[0, 0].tobytes() == start[0].tobytes()
    assert residual[0, 0] < 1e-14
    assert not np.array_equal(factors[0, 1], start[1])  # the Haar row is polished
    assert polished == [1]


@pytest.mark.parametrize("offset", [1e-12, 1e-6, 1e-2])
def test_circle_row_started_off_its_hit_is_swept_onto_it(offset):
    psi, row = l5_hit_row()
    row[0] = np.diag(np.exp([-1j * offset, 1j * offset])) @ row[0]
    out = apply_chain(LocalOperatorChain(row, "K"), psi).amplitudes
    assert 0.1 * offset < np.linalg.norm(out - 1j * psi.amplitudes) < 10 * offset
    factors, residual = _polish_rows(psi.amplitudes, psi.amplitudes, np.array([1j]),
                                     row[None].copy(), out[None])
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
    tensors = _correlations(PureState(n, amp).pauli_gram)
    assert tensors.shape == (n - 1, 3, 3)
    for k in range(2, n + 1):
        for a, sa in enumerate(_PAULIS):
            for b, sb in enumerate(_PAULIS):
                ops = [np.eye(2)] * n
                ops[0], ops[k - 1] = sa, sb
                dense = np.vdot(psi.amplitudes, kron_all(ops) @ psi.amplitudes).real
                assert abs(tensors[k - 2, a, b] - dense) < 1e-12


def lift_rotations():
    """200 random rotations, then the half-turns (trace -1, the branch where the
    quaternion's scalar part vanishes) and I."""
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((200, 3, 3)))
    rot = q * np.sign(np.linalg.det(q))[:, None, None]
    return np.concatenate([rot, [np.diag([1.0, -1, -1]), np.diag([-1.0, 1, -1]),
                                 np.diag([-1.0, -1, 1]), np.eye(3)]])


def test_su2_lift_conjugates_paulis_by_the_rotation():
    """u sigma_b u^dag = sum_a R[a, b] sigma_a; the inverse convention would
    still pass every self-symmetry test, as the candidate set is a group."""
    rot = lift_rotations()
    u = _su2_lift(rot)
    assert np.max(abs(np.linalg.det(u) - 1)) < 1e-12
    moved = np.einsum("rij,bjk,rlk->rbil", u, _PAULIS, u.conj())
    assert np.max(abs(moved - np.einsum("rab,aij->rbij", rot, _PAULIS))) < 1e-12


def _reference_su2_lift(r):
    """``_su2_lift`` before the map _LIFT: 4 q q^T written out entry by entry from
    r, its column picked with np.take_along_axis."""
    tr = np.trace(r, axis1=-2, axis2=-1)
    qq = np.empty(r.shape[:-2] + (4, 4))
    qq[..., 0, 0] = 1 + tr
    qq[..., 0, 1:] = qq[..., 1:, 0] = (r - r.swapaxes(-1, -2))[..., [2, 0, 1], [1, 2, 0]]
    qq[..., 1:, 1:] = r + r.swapaxes(-1, -2) + (1 - tr)[..., None, None] * np.eye(3)
    col = np.argmax(np.diagonal(qq, axis1=-2, axis2=-1), -1)[..., None, None]
    q = np.take_along_axis(qq, col, -1)[..., 0]
    return _su2(q / np.linalg.norm(q, axis=-1, keepdims=True))


def take_along_axis_lift(r):
    """``_su2_lift`` picking the column of 4 q q^T = [1, r.flat] @ _LIFT with
    np.take_along_axis: the reference for its one flat index (a row, equal as
    4 q q^T is symmetric)."""
    flat = r.reshape(-1, 9)
    qq = np.concatenate([np.ones((len(flat), 1)), flat], 1) @ stabilizer._LIFT
    qq = qq.reshape(r.shape[:-2] + (4, 4))
    col = np.argmax(np.diagonal(qq, axis1=-2, axis2=-1), -1)[..., None, None]
    q = np.take_along_axis(qq, col, -1)[..., 0]
    return _su2(q / np.linalg.norm(q, axis=-1, keepdims=True))


def lift_inputs():
    """Rotations, the half-turns and I, a (rows, n) stack as _starts lifts them,
    and non-orthogonal matrices, which the circle path lifts too."""
    rot = lift_rotations()
    skew = np.random.default_rng(1).standard_normal((100, 3, 3))
    return rot[:200], rot[200:], rot[:200].reshape(50, 4, 3, 3), skew


def test_su2_lift_matches_take_along_axis_reference():
    """Bitwise, on every input of ``lift_inputs``."""
    for r in lift_inputs():
        assert _su2_lift(r).tobytes() == take_along_axis_lift(r).tobytes()


def test_su2_lift_matches_the_entrywise_reference():
    """The map _LIFT gives the lift of the entrywise formula, up to the lift's
    sign and rounding, and it is read-only."""
    for r in lift_inputs():
        u, ref = _su2_lift(r), _reference_su2_lift(r)
        assert u.shape == ref.shape
        assert np.max(_chain_distance(u[..., None, :, :], ref[..., None, :, :])) <= 1e-15
    assert stabilizer._LIFT.shape == (10, 16) and not stabilizer._LIFT.flags.writeable


def analytic_hits(n, t):
    """diag(a, conj a) with a^(2n - 2) = 1 and a^(n - 2) = t, one of each
    pair a, -a: the symmetries u L_n = t L_n of this form, each factor up
    to sign.  A sign on one factor moves t to -t, so a^(n - 2) = -t counts
    as well, and the identity is no hit at t = +-1."""
    roots = np.exp(1j * np.pi * np.arange(n - 1) / (n - 1))  # a^(2n - 2) = 1, up to sign
    return [np.diag([a, np.conj(a)]) for a in roots
            if abs(a ** (2 * n - 4) - t * t) < 1e-9 and not (t * t == 1 and a == 1)]


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
@pytest.mark.parametrize("t", [1.0, 1j, -1j, -1.0])
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
    """Every kept circle row starts within 1e-12 of a hit at its own phase,
    so no search polishes a row: the candidate angles are exact, and a row
    at -t arrives with its factor 0 negated, where the Gauss-Newton step
    would be stationary."""
    psi, polished, polish = make_ln(n), [], stabilizer._polish_rows
    monkeypatch.setattr(stabilizer, "_polish_rows", lambda *a: polished.append(a) or polish(*a))
    for t in (1.0, 1j, -1j):
        phase_stabilizer_search(psi, t)
    gtilde_triviality_probe(psi)
    factors, residuals, path = _align(psi, psi, (1.0, 1j, -1j), 32, 0, special=True)
    assert path == "pair_circle" and not polished
    kept = np.isfinite(residuals)
    assert kept.any()
    for t, fac in zip(np.broadcast_to([[1.0], [1j], [-1j]], kept.shape)[kept], factors[kept]):
        out = apply_chain(LocalOperatorChain(fac, "K"), psi).amplitudes
        assert np.linalg.norm(out - t * psi.amplitudes) <= 1e-12


def test_phase_search_at_minus_one_drops_the_trivial_chain():
    """-I on one qubit gives u psi = -psi for every state, so at t = -1 the
    identity is excluded as at t = 1: a Haar representative has no hit, and
    gabcd has its three Pauli strings, each up to a factor sign."""
    rep = gtilde_triviality_probe(sample_haar_state(6, 0)).representative
    assert phase_stabilizer_search(rep, -1.0) == []
    gabcd = make_gabcd(1, 2 + 1j, 3, 0.5)
    assert_same_chains([c.factors for c, _ in phase_stabilizer_search(gabcd, -1.0)],
                       [c.factors for c, _ in discrete_stabilizer_search(gabcd)])


@pytest.mark.parametrize("index", range(6))
def test_circle_path_finds_the_exact_paths_symmetries(index, monkeypatch):
    """Forcing a Haar four-qubit representative onto the circle path (a
    gap tolerance between the two gaps of T_12) leaves h = sum ||R_k^T R_k
    - I||^2 non-zero, so its zeros must yield the three Pauli-type hits."""
    verdict = gtilde_triviality_probe(sample_haar_state(4, derive_rng(1, index, 0)))
    rep = verdict.representative
    sv = np.linalg.svd(_correlations(rep.pauli_gram)[0], compute_uv=False)
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
    theta = _critical_angles(trig_poly(coef, 2 * np.pi * np.arange(size) / size)[None])[0]
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
        samples = np.cos(d * (2 * np.pi * np.arange(size) / size - theta0))
        theta = _critical_angles(samples[None])[0]
        expected = theta0 + np.pi * np.arange(2 * d) / d
        gaps = abs(np.angle(np.exp(1j * (theta[:, None] - expected))))
        assert np.max(np.min(gaps, axis=0)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6).flatmap(lambda g: st.tuples(st.just(g), st.integers(g, 8))),
       st.integers(0, 2**32 - 1))
def test_critical_angles_of_sparse_frequencies(g_degree, seed):
    """f of degree D <= 8 with frequencies in g Z only, plus 1e-17 noise: the
    noise coefficients are zeroed, so f' is solved in w = z^g (or z^2g), and the
    angles are still the critical points of f, the np.roots angles of the whole
    cleaned polynomial in z."""
    g, degree = g_degree
    rng = np.random.default_rng(seed)
    coef = np.zeros(2 * degree + 1, dtype=complex)
    freq = np.arange(g, degree + 1, g)
    coef[degree + freq] = rng.standard_normal(freq.size) + 1j * rng.standard_normal(freq.size)
    coef[degree - freq] = coef[degree + freq].conj()
    coef[degree] = rng.standard_normal()
    size = 2 * degree + 2
    samples = trig_poly(coef, 2 * np.pi * np.arange(size) / size)
    samples += 1e-17 * rng.standard_normal(size)
    theta = _critical_angles(samples[None])[0]
    scale = np.abs(coef).sum() * degree
    assert np.all(abs(trig_poly(coef, theta, 1)) < 1e-12 * scale)
    grid = np.linspace(-np.pi, np.pi, 20001)
    for lo in np.nonzero(np.diff(np.sign(trig_poly(coef, grid, 1))))[0]:
        assert np.any((np.mod(theta - grid[lo], 2 * np.pi) <= grid[1] - grid[0]))
    k = np.arange(-degree, degree + 1)
    d1 = 1j * k * np.fft.fft(samples)[k] / size
    d1[abs(d1) < 1e-12 * max(1.0, abs(samples).max())] = 0
    z = np.roots(np.trim_zeros(d1)[::-1])
    expected = np.angle(z[abs(abs(z) - 1) < 1e-3])
    assert theta.size == expected.size
    gaps = abs(np.angle(np.exp(1j * (theta[:, None] - expected))))
    assert np.max(np.min(gaps, axis=0)) < 1e-12 and np.max(np.min(gaps, axis=1)) < 1e-12


def test_critical_angles_of_a_constant():
    assert _critical_angles(np.zeros((1, 10)))[0].tolist() == [0.0]
    theta = _critical_angles(np.full((1, 10), 0.7))[0]
    assert theta.size and np.all(np.isfinite(theta))


@pytest.mark.parametrize("seed", range(4))
def test_critical_angles_of_a_stack_match_per_row_calls(seed):
    """A stack holding constant rows gives each row the angles of its own
    one-row call, in row order, and theta = 0 for the constant rows."""
    rng = np.random.default_rng(seed)
    grid = 2 * np.pi * np.arange(12) / 12
    polys = [trig_poly(np.concatenate([c[::-1].conj(), [rng.standard_normal()], c]), grid)
             for c in rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))]
    stack = np.stack([np.full(12, 0.7), polys[0], np.zeros(12), polys[1]])
    theta, row = _critical_angles(stack)
    assert np.all(np.diff(row) >= 0) and set(row.tolist()) == {0, 1, 2, 3}
    assert theta[row == 0].tolist() == [0.0] and theta[row == 2].tolist() == [0.0]
    for r in range(4):
        np.testing.assert_allclose(theta[row == r], _critical_angles(stack[r:r + 1])[0],
                                   rtol=0, atol=1e-14)


def test_probe_computes_correlations_once(monkeypatch):
    calls = []
    tensors = stabilizer._correlations
    monkeypatch.setattr(stabilizer, "_correlations", lambda *a: calls.append(1) or tensors(*a))
    assert gtilde_triviality_probe(make_ln(5)).probe.start_path == "pair_circle"
    assert len(calls) == 1


@pytest.mark.parametrize("n", [5, 7])
def test_circle_starts_lift_twice_and_solve_in_the_period(n, monkeypatch):
    """On L_n the circle path maps its five basis matrices to rotations once,
    lifts the sample rows and the final rows once each, and solves q' in
    w = z^(2n - 2): no polynomial above degree 2 reaches np.roots."""
    lifts, degrees, rotations = [], [], []
    lift, roots = stabilizer._su2_lift, np.roots
    monkeypatch.setattr(stabilizer, "_su2_lift", lambda r: lifts.append(1) or lift(r))
    monkeypatch.setattr(np, "roots", lambda p: degrees.append(len(p) - 1) or roots(p))

    def count(frame, event, arg):  # rotations is local to _starts: count its frames
        code = frame.f_code
        if (event, code.co_name, code.co_filename) == ("call", "rotations", stabilizer.__file__):
            rotations.append(1)

    psi = make_ln(n)
    sys.setprofile(count)
    try:
        start, path = _starts(psi, psi, 32, 0, True)
    finally:
        sys.setprofile(None)
    assert path == "pair_circle" and len(start) == 2 * n + 1
    assert (len(lifts), len(rotations)) == (2, 1)
    assert degrees and max(degrees) <= 2


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


# ---------------------------------------------------------------------------
# one Gram matrix, one apply of the start rows, one pass over the hits
# ---------------------------------------------------------------------------

def per_row_hits(psi, phases, all_factors, all_residuals, tol):
    """The hit check row by row, in the order _search keeps: the reference
    for its one pass."""
    hits = []
    for t, factors, residuals in zip(phases, all_factors, all_residuals):
        exclude_identity = abs(t * t - 1.0) <= 1e-12
        found = []
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
    return hits


HIT_STATES = {"gabcd": make_gabcd(1, 2 + 1j, 3, 0.5), **{f"L{n}": make_ln(n) for n in range(4, 9)}}


@pytest.mark.parametrize("name", list(HIT_STATES))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_one_pass_hit_check_matches_per_row_loop(name, seed):
    psi = HIT_STATES[name]
    found = 0
    for phases in ((1.0,), (-1.0,), (1j,), (-1j,), (1.0, -1.0, 1j, -1j)):
        factors, residuals, _ = _align(psi, psi, phases, 32, seed, special=True)
        expected = per_row_hits(psi, phases, factors, residuals, 1e-8)
        hits, _ = stabilizer._search(psi, phases, 32, seed, 1e-8)
        assert [t for t, _, _ in hits] == [t for t, _, _ in expected]
        for (_, chain, check), (_, ref, ref_check) in zip(hits, expected):
            assert chain.factors.tobytes() == ref.factors.tobytes()
            assert abs(check - ref_check) <= 1e-14
        found += len(hits)
    assert found or name in ("L6", "L8")  # even L_n have no hit at these phases


@pytest.mark.parametrize("n", range(3, 9))
def test_gram_spectrum_matches_the_svd(n, monkeypatch):
    """On critical Haar representatives the singular values come from the
    Gram eigenvalues (the SVD only at n = 3, where 2**n < 3n) and match the
    SVD of the Pauli images within 1e-13 relative."""
    svd_inputs, images = [], stabilizer._pauli_images
    monkeypatch.setattr(stabilizer, "_pauli_images",
                        lambda a, *rest: svd_inputs.append(a) or images(a, *rest))
    for seed in range(3):
        rep = gtilde_triviality_probe(sample_haar_state(n, 600 + seed)).representative
        expected = np.linalg.svd(_pauli_images(rep.amplitudes), compute_uv=False)
        expected = np.concatenate([expected, np.zeros(3 * n - expected.size)])
        svd_inputs.clear()
        np.testing.assert_allclose(lie_stabilizer_dim(rep).singular_values, expected,
                                   rtol=1e-13, atol=0)
        assert len(svd_inputs) == (n == 3)


@pytest.mark.parametrize("psi,expected", [
    (make_ghz(3), 2),  # 2**n < 3n
    (make_ghz(4), 3),  # critical, lambda_min below 1e-8 lambda_max
    (make_w(3), 2),  # not critical
    (make_w(4), 3),
    (PureState(4, np.eye(16)[0].astype(complex)), 7),
    (sample_haar_state(5, 3), 0),
])
def test_lie_probe_falls_back_to_the_svd(psi, expected, monkeypatch):
    svd_inputs, images = [], stabilizer._pauli_images
    monkeypatch.setattr(stabilizer, "_pauli_images",
                        lambda a, *rest: svd_inputs.append(a) or images(a, *rest))
    assert lie_stabilizer_dim(psi).lie_dim == expected
    assert len(svd_inputs) == 1


def test_search_call_counts(monkeypatch):
    """Counts, not timings: a probe never gathers its representative's Pauli
    images, as the Lie gate and the starts read the Gram matrix the scaling
    seeded, and _align applies its start rows once
    (test_circle_rows_start_on_their_hits pins that no L_n row is polished)."""
    gathered = []
    # past the scaling: a critical input's first check gathers t, which may equal
    # the representative bit for bit (gabcd does)
    for module in (states, stabilizer):
        monkeypatch.setattr(module, "_pauli_images",
                            lambda a, *rest, f=module._pauli_images:
                            gathered.append(a.copy()) or f(a, *rest))
    for psi in (make_ln(5), make_gabcd(1, 2 + 1j, 3, 0.5), sample_haar_state(5, 1),
                sample_haar_state(6, 1)):
        gathered.clear()
        rep = gtilde_triviality_probe(psi).representative
        assert not any(a.shape == rep.amplitudes.shape and np.array_equal(a, rep.amplitudes)
                       for a in gathered)
    starts, applied = [], []
    start_fn, apply_fn = stabilizer._starts, stabilizer._apply_factors
    monkeypatch.setattr(stabilizer, "_starts",
                        lambda *a: starts.append(start_fn(*a)) or starts[-1])
    monkeypatch.setattr(stabilizer, "_apply_factors",
                        lambda f, amp: applied.append(f.copy()) or apply_fn(f, amp))
    for psi, phases in ((make_gabcd(1, 2 + 1j, 3, 0.5), (1.0,)), (make_ln(4), (1.0,)),
                        (make_ln(5), (1.0, 1j, -1j))):
        starts.clear()
        applied.clear()
        _align(psi, psi, phases, 32, 0, special=True)
        start = starts[0][0]  # a factor 0 may come back negated
        assert sum(f.shape == start.shape and np.array_equal(abs(f), abs(start))
                   for f in applied) == 1


def fresh_representative(monkeypatch):
    """Make the probe's representative a new state of the same amplitudes, whose
    Gram matrix is computed from them instead of seeded by the scaling."""
    scale = stabilizer.scale_to_critical

    def rescaled(psi, **kwargs):
        result = scale(psi, **kwargs)
        rep = PureState(psi.n, result.representative.amplitudes)
        return dataclasses.replace(result, representative=rep)
    monkeypatch.setattr(stabilizer, "scale_to_critical", rescaled)


def probe_summary(verdict):
    probe = verdict.probe
    return (verdict.verdict, verdict.failed_gate, probe.lie_dim, probe.start_path,
            len(probe.discrete_candidates), len(probe.gtilde_phase_hits))


@pytest.mark.parametrize("n", range(4, 9))
def test_seeded_gram_matches_a_fresh_one(n, monkeypatch):
    """The scaling's Gram matrix on the representative is read-only, within
    1e-14 max|C| of one computed from its amplitudes, and gives the same probe."""
    for seed in range(4):
        psi = sample_haar_state(n, 40 + seed)
        rep = stabilizer.scale_to_critical(psi, tol=stabilizer._REPRESENTATIVE_TOL).representative
        gram = vars(rep)["pauli_gram"]  # nothing has read it: the scaling put it there
        fresh = PureState(n, rep.amplitudes).pauli_gram
        assert not gram.flags.writeable
        assert np.max(abs(gram - fresh)) <= 1e-14 * np.max(abs(fresh))
        seeded = gtilde_triviality_probe(psi)
        with pytest.MonkeyPatch.context() as mp:
            fresh_representative(mp)
            again = gtilde_triviality_probe(psi)
        assert "pauli_gram" in vars(again.representative)  # computed by the probe
        assert again.representative.amplitudes.tobytes() == rep.amplitudes.tobytes()
        assert probe_summary(again) == probe_summary(seeded)


def test_probes_build_the_pauli_tables_once():
    """Counts, not timings: scaling, Lie gate, starts and polish of every probe,
    search and connector at one size share one set of Pauli tables."""
    _pauli_tables.cache_clear()
    genericity_report(5, 5)
    phase_stabilizer_search(make_ln(5), 1j)
    psi = sample_haar_state(5, 12)
    phi = apply_chain(sample_chain(5, "G", 13), psi).normalized()
    assert find_connector(psi, phi) is not None
    assert _pauli_tables.cache_info().misses == 1


@pytest.mark.parametrize("n,seed", [(5, 2000), (5, 2017), (5, 2020),
                                    (6, 3008), (6, 3009), (6, 3018), (6, 3025)])
def test_census_probes_polish_no_row(n, seed, monkeypatch):
    """Counts, not timings: a self-symmetry search has no identity row on the
    exact path.  On these census states that row started just above the 1e-14
    stop rule and was polished."""
    polished, polish = [], stabilizer._polish_rows
    monkeypatch.setattr(stabilizer, "_polish_rows",
                        lambda *a: polished.append(len(a[3])) or polish(*a))
    (record,) = genericity_report(n, 1, seed=seed).records
    assert record.gtilde_verdict == "trivial"
    assert polished == []


def test_self_search_starts_without_the_identity_row():
    """For target psi, det(A A') = 1 and the sign diagonal I gives R_k = I on
    every qubit: a row trivial at every phase, which _starts leaves out; an
    alignment with another state keeps all 4 sign diagonals."""
    psi = make_gabcd(1, 2 + 1j, 3, 0.5)
    start, path = _starts(psi, psi, 32, 0, True)
    assert (path, len(start)) == ("pair_exact", 3)
    assert np.all(_chain_distance(start, np.eye(2)) > _IDENTITY_EXCLUSION_RADIUS)
    reps = [gtilde_triviality_probe(sample_haar_state(5, s)).representative for s in (0, 1)]
    for phi, other in ((psi, apply_chain(sample_chain(4, "K", 1), psi)), reps):
        start, path = _starts(phi, other, 32, 0, False)
        assert (path, len(start)) == ("pair_exact", 4)
