import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localsym import (
    PureState,
    SlipValue,
    f2,
    f4,
    check_invariance,
    make_w,
    make_ghz,
    make_ln,
    apply_chain,
    sample_chain,
    sample_haar_state,
)

from localsym.invariants import _sigma_y_power_apply

from conftest import SIGMA_Y, kron_all


def f2_dense(psi):
    """Oracle: psi^T (sigma_y tensor power) psi with the matrix materialized."""
    m = kron_all([SIGMA_Y] * psi.n)
    return psi.amplitudes @ m @ psi.amplitudes


def f4_dense(psi):
    """Oracle: determinant of the 2x2 bilinear-form matrix, dense sigma_y power."""
    half = psi.dim // 2
    phi = [psi.amplitudes[:half], psi.amplitudes[half:]]
    m = kron_all([SIGMA_Y] * (psi.n - 1))
    b = np.array([[phi[i] @ m @ phi[j] for j in (0, 1)] for i in (0, 1)])
    return np.linalg.det(b)


@pytest.mark.parametrize("m", range(11))
def test_sigma_y_parity_signs(m):
    # sigma_y^(x)m sends |j> to i**m (-1)**popcount(j) |complement of j>
    signs = _sigma_y_power_apply(np.ones(2**m), m)[::-1] / 1j**m
    expected = [(-1) ** bin(j).count("1") for j in range(2**m)]
    assert np.array_equal(signs, expected)


def test_slipvalue_validation():
    with pytest.raises(ValueError):
        SlipValue(1.0, 3)
    with pytest.raises(ValueError):
        SlipValue(1.0, 2, defined=False)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_f2_matches_dense_oracle(n):
    psi = sample_haar_state(n, 10 + n)
    val = f2(psi)
    assert val.defined and val.degree == 2
    assert abs(val.value - f2_dense(psi)) < 1e-12


def test_f2_odd_n_undefined():
    val = f2(sample_haar_state(3, 0))
    assert not val.defined
    assert val.value == 0


def test_f2_named_values():
    assert abs(f2(make_ghz(2)).value + 1.0) < 1e-12
    assert abs(f2(make_ln(2)).value - 1.0) < 1e-12
    assert abs(f2(make_w(4)).value) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 7])
def test_f4_matches_dense_oracle(n):
    psi = sample_haar_state(n, 20 + n)
    val = f4(psi)
    assert val.degree == 4
    assert abs(val.value - f4_dense(psi)) < 1e-12


def test_f4_even_n_raises():
    with pytest.raises(ValueError):
        f4(sample_haar_state(4, 0))


def test_f4_named_values():
    assert abs(f4(make_w(5)).value) < 1e-12
    assert abs(f4(make_ghz(5)).value + 0.25) < 1e-12
    assert abs(f4(make_ln(5)).value) < 1e-12


def test_f2_homogeneity():
    psi = sample_haar_state(4, 30)
    scaled = PureState(4, (2.0 - 1.0j) * psi.amplitudes)
    assert abs(f2(scaled).value - (2.0 - 1.0j) ** 2 * f2(psi).value) < 1e-10


def test_f4_homogeneity():
    psi = sample_haar_state(5, 31)
    scaled = PureState(5, (1.0 + 0.5j) * psi.amplitudes)
    assert abs(f4(scaled).value - (1.0 + 0.5j) ** 4 * f4(psi).value) < 1e-10


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([2, 4, 6]), st.integers(0, 2**31 - 1))
def test_f2_invariance_under_unit_det_chain(n, seed):
    """f2 is constant on the SL(2,C)^n orbit of a Haar state (even n)."""
    psi = sample_haar_state(n, seed)
    g = sample_chain(n, "G", seed + 1)
    ref = f2(psi).value
    assert abs(f2(apply_chain(g, psi)).value - ref) <= 1e-9 * abs(ref)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(0, 2**31 - 1))
def test_f4_invariance_under_unit_det_chain(n, seed):
    """f4 is constant on the SL(2,C)^n orbit of a Haar state (odd n >= 3)."""
    psi = sample_haar_state(n, seed)
    g = sample_chain(n, "G", seed + 1)
    ref = f4(psi).value
    assert abs(f4(apply_chain(g, psi)).value - ref) <= 1e-9 * abs(ref)


def test_f2_transforms_with_det_of_gl_chain():
    psi = sample_haar_state(4, 36)
    rng = np.random.default_rng(37)
    fac = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    from localsym import LocalOperatorChain
    g = LocalOperatorChain(fac, "Gt")
    det = np.prod(np.linalg.det(fac))
    lhs = f2(apply_chain(g, psi)).value
    rhs = det * f2(psi).value
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_check_invariance_small():
    assert check_invariance("f2", sample_haar_state(4, 40), trials=10) < 1e-9
    assert check_invariance("f4", sample_haar_state(5, 41), trials=10) < 1e-9


def test_check_invariance_rejects_undefined():
    with pytest.raises(ValueError):
        check_invariance("f2", sample_haar_state(3, 0))
