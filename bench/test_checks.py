"""Self-tests of the benchmark's checks: each rejects a corrupted output.

    python3 -m pytest -q bench/test_checks.py

Every test first shows that the check accepts a genuine output, then
corrupts that output the way a wrong program would and expects
``Mismatch``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from checks import Mismatch, SX, SY, SZ  # noqa: E402
from localsym import convert, critical, states  # noqa: E402


def perturbed(factors, k=0, eps=1e-4):
    out = np.array(factors, dtype=complex)
    out[k] = out[k] + eps * np.array([[0, 1], [1, 0]])
    return out


@pytest.fixture(scope="module")
def representative():
    psi = states.sample_haar_state(5, 3)
    return critical.scale_to_critical(psi, tol=1e-11).representative.amplitudes


def test_census_record_flipped(representative):
    checks.check_census_sample(5, "trivial", None, 0, 0, representative)
    with pytest.raises(Mismatch):
        checks.check_census_sample(5, "non_trivial", "discrete_search", 0, 1,
                                   representative)
    with pytest.raises(Mismatch):
        checks.check_record_trivial(5, "trivial", None, 1, 0)


def test_census_representative_off_critical(representative):
    bent = representative.copy()
    bent[0] += 1e-4
    with pytest.raises(Mismatch):
        checks.check_critical(bent / np.linalg.norm(bent), 5)


def test_census_lie_dimension(representative):
    checks.check_lie_trivial(representative, 5)
    with pytest.raises(Mismatch):  # GHZ is critical with a torus in its stabilizer
        checks.check_lie_trivial(states.make_ghz(5).amplitudes, 5)


def test_census_pinning_invariant(representative):
    checks.check_pinned(representative, 5)
    with pytest.raises(Mismatch):
        checks.check_pinned(states.make_w(5).amplitudes, 5)
    with pytest.raises(Mismatch):
        checks.check_pinned(states.make_w(6).amplitudes, 6)


def test_dense_slip_matches_a_hand_value():
    # GHZ4 = (|0000> + |1111>)/sqrt2: psi^T sy^4 psi = 2 * (1/2) * (i^4) = 1
    assert abs(checks.dense_slip(states.make_ghz(4).amplitudes, 4) - 1.0) < 1e-12


def test_witness_factor_perturbed():
    psi = states.make_gabcd(1, 2 + 1j, 3, 0.5).amplitudes
    sx4 = np.array([SX] * 4)
    checks.check_witness(psi, sx4, 1.0, 1e-8)
    with pytest.raises(Mismatch):
        checks.check_witness(psi, perturbed(sx4), 1.0, 1e-8)


def test_witness_adjoint_closure():
    # u|0> = |0> but u^dag|0> = |0> + |1>: a forward-only "symmetry"
    shear = np.array([[[1, 1], [0, 1]]], dtype=complex)
    with pytest.raises(Mismatch, match="adjoint"):
        checks.check_witness(np.array([1.0, 0.0]), shear, 1.0, 1e-8)


def test_pauli_string_missing():
    chains = [np.array([p] * 4) for p in (SX, SY, SZ)]
    checks.check_paulis_recovered(chains)
    with pytest.raises(Mismatch):
        checks.check_paulis_recovered(chains[:2])
    with pytest.raises(Mismatch):
        checks.check_paulis_recovered([perturbed(c) for c in chains])


def test_analytic_l5_hit():
    a = checks.analytic_phases(5, 1j)[0]
    hit = np.array([np.diag([a, np.conj(a)])] * 5)
    hit[1] *= -1
    hit[3] *= -1
    checks.check_witness(states.make_ln(5).amplitudes, hit, 1j, 1e-8)
    checks.check_analytic_hit(5, 1j, [hit])
    with pytest.raises(Mismatch):
        checks.check_analytic_hit(5, 1j, [perturbed(hit, k=2)])
    with pytest.raises(Mismatch):
        checks.check_analytic_hit(5, 1j, [np.array([np.eye(2)] * 5)])
    with pytest.raises(Mismatch):
        checks.check_analytic_hit(5, 1j, [])


def test_analytic_phases():
    assert np.allclose(checks.analytic_phases(5, 1j), [-1j])
    assert np.allclose(checks.analytic_phases(7, 1j), [1j])


@pytest.fixture(scope="module")
def conversion():
    psi = states.sample_haar_state(5, 11)
    g = states.sample_chain(5, "G", 12)
    return psi.amplitudes, g


@pytest.fixture(scope="module")
def scaling(conversion):
    psi, _ = conversion
    result = critical.scale_to_critical(states.PureState(5, psi))
    return (psi, result.accumulated_chain.factors, result.scalar,
            result.representative.amplitudes, result.norm_trajectory)


def test_scaling_chain_factor_rescaled(scaling):
    psi, factors, scalar, rep, trajectory = scaling
    checks.check_scaling(psi, 5, factors, scalar, rep, trajectory)
    scaled = factors.copy()
    scaled[2] *= 1.01
    with pytest.raises(Mismatch, match="scalar"):
        checks.check_scaling(psi, 5, scaled, scalar, rep, trajectory)


def test_scaling_norm_rose(scaling):
    psi, factors, scalar, rep, trajectory = scaling
    risen = list(trajectory)
    risen[-1] = risen[-2] + 1e-9
    with pytest.raises(Mismatch, match="rose"):
        checks.check_scaling(psi, 5, factors, scalar, rep, risen)


def test_pmax_against_dense_eigensolve(conversion):
    psi, g = conversion
    p = convert.pmax(states.PureState(5, psi), g).p_max
    reference = checks.dense_pmax(psi, g.factors)
    checks.check_close("pmax", p, reference, checks.ORACLE_REL_TOL)
    with pytest.raises(Mismatch):
        checks.check_close("pmax", p * (1 + 1e-6), reference, checks.ORACLE_REL_TOL)


def test_pmax_of_l5_diag_chain():
    factors = np.array([np.diag([2.0, 0.5])] + [np.eye(2)] * 4, dtype=complex)
    assert abs(checks.dense_pmax(states.make_ln(5).amplitudes, factors) - 17 / 32) < 1e-12


def test_measurement_incomplete(conversion):
    psi, g = conversion
    plan = convert.build_protocol(states.PureState(5, psi), g)
    checks.check_measurements(plan.measurements)
    bad = list(plan.measurements)
    bad[1] = (bad[1][0], bad[1][1] * (1 + 1e-6))
    with pytest.raises(Mismatch):
        checks.check_measurements(bad)


def test_frequency_off():
    checks.check_frequency(5000, 10_000, 0.5, 4.0)
    with pytest.raises(Mismatch):
        checks.check_frequency(5000 + 5 * 50, 10_000, 0.5, 4.0)


def test_frequency_tail():
    checks.check_frequency_tail(5000 + 5 * 50, 10_000, 0.5, 1e-9)
    checks.check_frequency_tail(3, 10_000, 1e-4, 1e-9)  # small counts
    with pytest.raises(Mismatch):
        checks.check_frequency_tail(5000 + 7 * 50, 10_000, 0.5, 1e-9)
    with pytest.raises(Mismatch):
        checks.check_frequency_tail(30, 10_000, 1e-4, 1e-9)
    with pytest.raises(Mismatch):
        checks.check_frequency_tail(0, 10_000, 0.01, 1e-9)


def test_round_trip_last_bit():
    a = states.sample_haar_state(3, 1).amplitudes
    checks.check_bit_exact("state", a, a.copy())
    b = a.copy()
    b[4] = complex(np.nextafter(b[4].real, 2.0), b[4].imag)
    with pytest.raises(Mismatch):
        checks.check_bit_exact("state", a, b)


def test_report_schema():
    schema = json.loads((ROOT / "docs" / "report.schema.json").read_text())
    doc = {"tool": "localsym", "version": "0.1.0", "command": "stab",
           "parameters": {}, "timestamp": "2026-01-01T00:00:00+00:00",
           "payload": {}}
    checks.check_report(doc, schema, "stab")
    with pytest.raises(Mismatch):
        checks.check_report({**doc, "extra": 1}, schema, "stab")
    with pytest.raises(Mismatch):
        checks.check_report(doc, schema, "pmax")


def test_report_factor_parsing():
    chain = {"factors": [[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]]}
    assert np.array_equal(checks.parse_factors(chain), np.array([SX]))


def test_trace_self_times_partition_the_wall():
    tr = tracing.Tracer()
    root = tr.open("bench.run")
    a = tr.open("stabilizer.x")
    b = tr.open("states.y")
    tr.close(b)
    tr.close(a)
    c = tr.open("critical.z")
    tr.close(c)
    tr.close(root)
    self_s = tr.self_times()
    assert all(s >= 0 for s in self_s)
    assert abs(sum(self_s) - (tr.ends[root] - tr.starts[root])) < 1e-12
    with pytest.raises(RuntimeError):
        d = tr.open("states.a")
        tr.open("states.b")
        tr.close(d)
