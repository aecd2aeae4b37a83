import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localsym import (
    PureState,
    LocalOperatorChain,
    make_w,
    make_ln,
    make_ghz,
    make_gabcd,
    apply_chain,
    reduced_density,
    fidelity,
    sample_haar_state,
    sample_chain,
    criticality_report,
    scale_to_critical,
    lie_stabilizer_dim,
    gtilde_triviality_probe,
    pmax,
    build_protocol,
    simulate_protocol,
    find_connector,
    genericity_report,
)
from localsym.states import (_apply_factors, _apply_next, _pauli_images, _pauli_tables,
                             _unitary_deviation)

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, kron_all


def test_purestate_validates_length():
    with pytest.raises(ValueError):
        PureState(2, np.zeros(3, dtype=complex))


def test_purestate_rejects_nan():
    amp = np.zeros(4, dtype=complex)
    amp[0] = np.nan
    with pytest.raises(ValueError):
        PureState(2, amp)


def test_norm_and_normalize_near_overflow():
    psi = PureState(2, np.full(4, 1e300, dtype=complex))
    assert abs(psi.norm() / 2e300 - 1) < 1e-15
    np.testing.assert_allclose(psi.normalized().amplitudes, np.full(4, 0.5), rtol=1e-15)
    big = PureState(2, np.full(4, 1e308, dtype=complex))
    np.testing.assert_allclose(big.normalized().amplitudes, np.full(4, 0.5), rtol=1e-15)


def test_purestate_copies_its_input():
    """Writing through a view made before construction changes no state, and the
    caller's array stays writeable."""
    amp = np.full(4, 0.5, dtype=complex)
    view = amp[:]
    psi = PureState(2, amp)
    view[0] = np.nan
    assert amp.flags.writeable and not psi.amplitudes.flags.writeable
    np.testing.assert_array_equal(psi.amplitudes, np.full(4, 0.5))
    assert psi.norm() == 1.0


def test_chain_copies_its_input():
    """A K chain keeps unitary factors whatever the caller writes afterwards."""
    factors = np.array(sample_chain(3, "K", 5).factors)
    view, expected = factors[:], factors.copy()
    chain = LocalOperatorChain(factors, "K")
    view[0] = np.diag([2.0, 0.5])
    assert factors.flags.writeable and not chain.factors.flags.writeable
    np.testing.assert_array_equal(chain.factors, expected)
    assert _unitary_deviation(chain.factors) <= 1e-12


@pytest.mark.parametrize("make", [lambda: make_ln(5), lambda: sample_chain(4, "G", 3)],
                         ids=["state", "chain"])
def test_equality_and_hash_are_by_identity(make):
    """Array fields have no truth value, so equal-valued distinct objects compare
    unequal instead of raising, and every object hashes."""
    x, y = make(), make()
    assert not x == y and x != y
    assert x == x
    assert {x: 1}[x] == 1 and len({x, y}) == 2


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), exponent=st.integers(-300, 300), seed=st.integers(0, 2**16))
def test_norm_and_gram_are_computed_once(n, exponent, seed):
    """The memoized norm and Pauli Gram matrix equal a fresh computation bitwise,
    across the overflow guard of norm(), and repeated access returns the same object."""
    amp = 10.0**exponent * sample_haar_state(n, seed).amplitudes
    psi = PureState(n, amp)
    big = np.max(np.abs(amp))
    assert psi.norm() == float(big * np.linalg.norm(amp / big))
    assert psi.norm() is psi.norm()
    with np.errstate(over="ignore", invalid="ignore"):  # squares of 1e300 overflow
        images = _pauli_images(amp).view(float)
        expected = images @ images.T
        gram = psi.pauli_gram
    assert gram.tobytes() == expected.tobytes()
    assert psi.pauli_gram is gram and not gram.flags.writeable


def test_norm_past_the_largest_float_is_inf_without_warning():
    """A finite vector whose norm overflows reads inf; normalizing it still works."""
    psi = make_gabcd(1e308, 1e308, 1e308, 1e308, normalized=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert psi.norm() == np.inf
        assert abs(psi.normalized().norm() - 1.0) <= 1e-15


def test_make_w_n2():
    psi = make_w(2)
    np.testing.assert_allclose(psi.amplitudes,
                               np.array([0, 1, 1, 0]) / np.sqrt(2))


def test_make_w_unnormalized_n4():
    psi = make_w(4, normalized=False)
    expect = np.zeros(16)
    expect[[8, 4, 2, 1]] = 1
    np.testing.assert_array_equal(psi.amplitudes, expect)


def test_make_w_rejects_small_n():
    with pytest.raises(ValueError):
        make_w(1)


def test_ln2_is_bell():
    psi = make_ln(2)
    np.testing.assert_allclose(psi.amplitudes,
                               np.array([0, 1, 1, 0]) / np.sqrt(2), atol=1e-15)


def test_ln_permutation_symmetric():
    psi = make_ln(5)
    rng = np.random.default_rng(0)
    for _ in range(5):
        out = psi.tensor().transpose(rng.permutation(5)).reshape(-1)
        assert np.linalg.norm(out - psi.amplitudes) < 1e-12


def test_ln_reductions_maximally_mixed():
    psi = make_ln(5)
    for k in range(1, 6):
        np.testing.assert_allclose(reduced_density(psi, k), np.eye(2) / 2,
                                   atol=1e-12)


def test_ghz_amplitudes():
    psi = make_ghz(3)
    assert abs(psi.amplitudes[0] - 1 / np.sqrt(2)) < 1e-15
    assert abs(psi.amplitudes[7] - 1 / np.sqrt(2)) < 1e-15
    assert np.count_nonzero(psi.amplitudes) == 2


def test_ghz_reductions():
    psi = make_ghz(4)
    for k in range(1, 5):
        np.testing.assert_allclose(reduced_density(psi, k), np.eye(2) / 2,
                                   atol=1e-15)


def test_gabcd_ghz_special_case():
    psi = make_gabcd(1, 0, 0, 0)
    np.testing.assert_allclose(psi.amplitudes, make_ghz(4).amplitudes)


def test_gabcd_pauli_x_symmetry():
    psi = make_gabcd(0.3 + 1j, -2, 0.7, 1.4 - 0.2j)
    chain = LocalOperatorChain(np.array([SIGMA_X] * 4), "Kt")
    out = apply_chain(chain, psi)
    assert np.linalg.norm(out.amplitudes - psi.amplitudes) < 1e-12


def test_gabcd_rejects_zero():
    with pytest.raises(ValueError):
        make_gabcd(0, 0, 0, 0)


@pytest.mark.parametrize("coeffs,scale", [((1e300, 2e300, 3e300, 1e300), 1e300),
                                          ((1e-170, 0, 0, 0), 1e-170),
                                          ((1e308, 1e308, -1e308, 1e308), 1e308)])
def test_gabcd_normalizes_extreme_coefficients(coeffs, scale):
    """The norm's squares would overflow (1e300) or underflow (1e-170): the
    state is the unit-norm one of the rescaled coefficients, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = make_gabcd(*coeffs)
    expected = make_gabcd(*(c / scale for c in coeffs)).amplitudes
    assert abs(psi.norm() - 1) <= 1e-15
    np.testing.assert_allclose(psi.amplitudes, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("maker", [make_w, make_ln, make_ghz])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_constructors_normalize(maker, n):
    assert abs(maker(n).norm() - 1) <= 1e-12


def test_apply_identity():
    psi = sample_haar_state(4, 0)
    identity = LocalOperatorChain(np.tile(np.eye(2), (4, 1, 1)), "K")
    out = apply_chain(identity, psi)
    np.testing.assert_array_equal(out.amplitudes, psi.amplitudes)


def test_apply_chain_matches_dense_kron():
    psi = sample_haar_state(3, 1)
    chain = sample_chain(3, "G", 2)
    out = apply_chain(chain, psi)
    expect = kron_all(chain.factors) @ psi.amplitudes
    np.testing.assert_allclose(out.amplitudes, expect, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_apply_factors_batched_rows_match_dense_kron(n):
    """Rows of factors against one state, and against one state per row."""
    rng = np.random.default_rng(n)
    factors = rng.standard_normal((3, n, 2, 2)) + 1j * rng.standard_normal((3, n, 2, 2))
    amps = rng.standard_normal((3, 2**n)) + 1j * rng.standard_normal((3, 2**n))
    dense = [kron_all(f) for f in factors]
    one = _apply_factors(factors, amps[0])
    rows = _apply_factors(factors, amps)
    assert one.shape == rows.shape == (3, 2**n)
    for r in range(3):
        for got, expect in ((one[r], dense[r] @ amps[0]), (rows[r], dense[r] @ amps[r])):
            assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)


SIGNED_ZEROS = np.array([0.0, -0.0, 0.0j, -0.0 - 0.0j, complex(-0.0, 0.0), complex(0.0, -0.0)])


@pytest.mark.parametrize("n", range(1, 11))
def test_single_chain_apply_matches_a_stack_of_one_bitwise(n):
    """One (n, 2, 2) chain, one factor at a time by a 2-D np.dot, gives the bytes
    of the same chain as a stack of one row, on one state, on signed zeros and
    on a (3, 2**n) amplitude stack."""
    rng = np.random.default_rng(100 + n)
    factors = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    factors[0, 0, 1] = SIGNED_ZEROS[1]
    amp = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    signed = SIGNED_ZEROS[rng.integers(0, SIGNED_ZEROS.size, 2**n)]
    for a in (amp, signed, np.where(rng.random(2**n) < 0.5, signed, amp)):
        t = a.reshape(2, -1)
        one, row = _apply_next(factors[0], t), _apply_next(factors[:1], t[None])[0]
        assert one.tobytes() == row.tobytes()
        one, row = _apply_factors(factors, a), _apply_factors(factors[None], a)[0]
        assert one.tobytes() == row.tobytes()
    for f in (factors, np.where(rng.random(factors.shape) < 0.5, SIGNED_ZEROS[1], factors)):
        stack = np.stack([amp, signed, -amp])
        assert _apply_factors(f, stack).tobytes() == _apply_factors(f[None], stack).tobytes()


def dense_pauli_images(amp):
    """Row 3k + a: sigma_a on qubit k as an np.kron Pauli string times amp."""
    n = amp.size.bit_length() - 1
    return np.array([kron_all([np.eye(2)] * k + [s] + [np.eye(2)] * (n - k - 1)) @ amp
                     for k in range(n) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


@pytest.mark.parametrize("psi", [
    make_ln(5), make_ghz(4), make_w(3),
    PureState(3, np.kron(np.kron([1, 0], [0.6, 0.8j]), [0, 1])),
    sample_haar_state(1, 3), sample_haar_state(6, 4),
], ids=["L5", "GHZ4", "W3", "product", "haar1", "haar6"])
def test_pauli_images_match_dense_pauli_strings(psi):
    """Values, not bytes: on zero amplitudes the signs of zeros are not pinned."""
    amp = psi.amplitudes
    expect = dense_pauli_images(amp)
    np.testing.assert_array_equal(_pauli_images(amp), expect)
    batch = np.stack([amp, 1j * amp[::-1]])
    images = _pauli_images(batch)
    assert images.shape == (2, 3 * psi.n, psi.dim)
    np.testing.assert_array_equal(images[0], expect)
    np.testing.assert_array_equal(images[1], dense_pauli_images(1j * amp[::-1]))


def _stacked_pauli_images(amp):
    """The three blocks joined by np.stack, in the operand order of ``_pauli_images``."""
    index, z, yz = _pauli_tables(amp.shape[-1])
    x = amp[..., index]
    images = np.stack([x, yz * x, z * amp[..., None, :]], -2)
    return images.reshape(amp.shape[:-1] + (-1, amp.shape[-1]))


@pytest.mark.parametrize("n", range(1, 11))
def test_pauli_images_match_stacked_blocks_bitwise(n):
    """Writing the blocks into one array changes no bit, also on a (4, 2**n) stack
    and on signed zeros."""
    rng = np.random.default_rng(n)
    amp = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    signed = SIGNED_ZEROS[rng.integers(0, SIGNED_ZEROS.size, 2**n)]
    batch = np.stack([amp, signed, np.where(rng.random(2**n) < 0.5, signed, amp), -amp])
    for a in (amp, signed, batch):
        assert _pauli_images(a).tobytes() == _stacked_pauli_images(a).tobytes()


def test_apply_diag_on_ghz3():
    chain = LocalOperatorChain(
        np.array([np.diag([2.0, 0.5]), np.eye(2), np.eye(2)], dtype=complex), "G")
    out = apply_chain(chain, make_ghz(3))
    expect = np.zeros(8, dtype=complex)
    expect[0] = 2 / np.sqrt(2)
    expect[7] = 0.5 / np.sqrt(2)
    np.testing.assert_allclose(out.amplitudes, expect, atol=1e-15)


def test_apply_chain_length_mismatch():
    with pytest.raises(ValueError):
        apply_chain(LocalOperatorChain(np.tile(np.eye(2), (3, 1, 1)), "K"), make_ghz(4))


def test_unitary_chain_preserves_norm():
    psi = sample_haar_state(5, 6)
    u = sample_chain(5, "K", 7)
    assert abs(apply_chain(u, psi).norm() - psi.norm()) < 1e-12


def test_reduced_density_bell():
    np.testing.assert_allclose(reduced_density(make_ln(2), 1), np.eye(2) / 2,
                               atol=1e-15)


def test_reduced_density_product_state():
    amp = np.kron([1, 0], [1, 1]) / np.sqrt(2)
    psi = PureState(2, amp.astype(complex))
    rho = reduced_density(psi, 1)
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-15)


def test_reduced_density_properties():
    psi = sample_haar_state(5, 8)
    for k in range(1, 6):
        rho = reduced_density(psi, k)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.linalg.norm(rho - rho.conj().T) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] > -1e-12


def test_reduced_density_index_range():
    with pytest.raises(ValueError):
        reduced_density(make_ghz(3), 4)


def test_reduced_density_unnormalized_and_zero():
    psi = make_w(3)
    np.testing.assert_allclose(reduced_density(PureState(3, 3j * psi.amplitudes), 2),
                               reduced_density(psi, 2), atol=1e-15)
    with pytest.raises(ValueError, match="zero vector"):
        reduced_density(PureState(2, np.zeros(4, dtype=complex)), 1)


def test_haar_state_deterministic():
    a = sample_haar_state(5, 1)
    b = sample_haar_state(5, 1)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_haar_states_differ_across_seeds():
    a = sample_haar_state(5, 1)
    b = sample_haar_state(5, 2)
    assert fidelity(a, b) < 0.99


@pytest.mark.parametrize("zero_first", [True, False])
def test_fidelity_rejects_a_zero_norm_state(zero_first):
    zero, unit = PureState(2, np.zeros(4)), make_ghz(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="nonzero norm"):
            fidelity(*((zero, unit) if zero_first else (unit, zero)))


def test_fidelity_of_tiny_states():
    """Norms near 1e-160 square to zero; each state is divided by its largest
    modulus first."""
    tiny = PureState(1, [1e-160, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fidelity(tiny, tiny) == 1.0
        assert fidelity(PureState(1, [1e-160, 1e-160]), PureState(1, [1e-300, 0])) == 0.5


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**16), k=st.integers(-300, 300),
       first=st.booleans())
def test_fidelity_is_scale_invariant(n, seed, k, first):
    psi, phi = sample_haar_state(n, seed), sample_haar_state(n, seed + 1)
    expected = fidelity(psi, phi)
    scaled = (PureState(n, 10.0**k * (psi if first else phi).amplitudes),)
    pair = scaled + (phi,) if first else (psi,) + scaled
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(fidelity(*pair) - expected) <= 1e-12


def test_haar_state_normalized():
    assert abs(sample_haar_state(6, 9).norm() - 1) < 1e-12


def test_sample_chain_tags():
    g = sample_chain(4, "G", 0)
    assert np.max(np.abs(np.linalg.det(g.factors) - 1)) < 1e-12
    k = sample_chain(4, "K", 0)
    for f in k.factors:
        assert np.linalg.norm(f.conj().T @ f - np.eye(2)) < 1e-12
    assert np.max(np.abs(np.linalg.det(k.factors) - 1)) < 1e-12


def test_sample_chain_deterministic():
    a = sample_chain(3, "G", 5)
    b = sample_chain(3, "G", 5)
    np.testing.assert_array_equal(a.factors, b.factors)


def per_factor_sample_chain(n, group_tag, seed):
    """Reference: the G/Gt sampler as a loop drawing one 2x2 factor at a time."""
    rng = np.random.default_rng(seed)
    factors = np.empty((n, 2, 2), dtype=complex)
    for k in range(n):
        while True:
            z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
            det = np.linalg.det(z)
            if abs(det) >= 1e-12 * np.linalg.norm(z) ** 2:
                break
        factors[k] = z / np.sqrt(det) if group_tag == "G" else z
    return factors


@pytest.mark.parametrize("group_tag", ["G", "Gt"])
@pytest.mark.parametrize("n", [1, 3, 5, 8])
def test_sample_chain_matches_per_factor_loop(n, group_tag):
    for seed in range(20):
        expect = per_factor_sample_chain(n, group_tag, seed)
        assert sample_chain(n, group_tag, seed).factors.tobytes() == expect.tobytes()


def test_sample_chain_redraws_singular_factors(monkeypatch):
    """Singular factors of the stack are redrawn until regular; the others stay."""
    from localsym import states
    ones, x, d = np.ones((2, 2)), np.array([[0, 1], [1, 0]]), np.diag([1.0, 2.0])
    draws = iter([np.array([np.eye(2), ones, d, ones]), np.array([ones, x]),
                  np.array([d])])
    monkeypatch.setattr(states, "_ginibre",
                        lambda rng, shape: np.sqrt(2) * next(draws).astype(complex))
    chain = sample_chain(4, "Gt", 0)
    np.testing.assert_allclose(chain.factors, [np.eye(2), d, d, x], atol=1e-15)
    assert next(draws, None) is None


def test_chain_tag_validation():
    bad = np.array([np.diag([2.0, 1.0])], dtype=complex)
    with pytest.raises(ValueError):
        LocalOperatorChain(bad, "G")
    with pytest.raises(ValueError):
        LocalOperatorChain(bad, "K")
    LocalOperatorChain(bad, "Gt")  # invertible, fine


@pytest.mark.parametrize("tag", ["G", "Gt", "K", "Kt"])
@pytest.mark.parametrize("bad", ["nan factor", "inf factor", "nan scalar"])
def test_chain_rejects_non_finite_input(tag, bad):
    """Rejected before det, which warns on them; NaN would pass every tag test."""
    factors = sample_chain(3, tag, 0).factors.copy()
    scalar = 1.0
    if bad == "nan scalar":
        scalar = complex("nan")
    else:
        factors[1, 0, 1] = np.nan if bad == "nan factor" else np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            LocalOperatorChain(factors, tag, scalar=scalar)


_UNIT = make_ln(5)
_CHAIN = sample_chain(5, "G", 0)
_ENTRY_POINTS = {
    "criticality_report": criticality_report,
    "scale_to_critical": scale_to_critical,
    "lie_stabilizer_dim": lie_stabilizer_dim,
    "gtilde_triviality_probe": gtilde_triviality_probe,
    "pmax": lambda s: pmax(s, _CHAIN),
    "simulate_protocol": lambda s: simulate_protocol(build_protocol(_UNIT, _CHAIN), s, 10),
    "find_connector psi": lambda s: find_connector(s, _UNIT),
    "find_connector phi": lambda s: find_connector(_UNIT, s),
}


@pytest.mark.parametrize("entry", _ENTRY_POINTS.values(), ids=_ENTRY_POINTS.keys())
def test_entry_points_reject_unnormalized_state(entry):
    with pytest.raises(ValueError, match="state must be normalized, got norm"):
        entry(PureState(5, 2 * _UNIT.amplitudes))


_SEEDED_ENTRY_POINTS = {
    "sample_haar_state": lambda seed: sample_haar_state(3, seed),
    "sample_chain": lambda seed: sample_chain(3, "G", seed),
    "genericity_report": lambda seed: genericity_report(4, 1, seed=seed),
    "simulate_protocol": lambda seed: simulate_protocol(
        build_protocol(_UNIT, _CHAIN), _UNIT, 10, seed),
    # an empty run reads no seed, but the seed is still an input
    "simulate_protocol no trials": lambda seed: simulate_protocol(
        build_protocol(_UNIT, _CHAIN), _UNIT, 0, seed),
}


@pytest.mark.parametrize("entry", _SEEDED_ENTRY_POINTS.values(),
                         ids=_SEEDED_ENTRY_POINTS.keys())
def test_entry_points_name_a_negative_seed(entry):
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
        entry(-1)
    entry(np.int64(0))  # numpy integer seeds pass
