import json
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from localsym import cli, make_gabcd, make_ghz, make_ln, make_w, sample_haar_state
from localsym.cli import main
from localsym.io import read_state, write_state, write_chain
from localsym import LocalOperatorChain

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report.schema.json").read_text()
)


def l5_chain():
    """diag(2, 1/2) on qubit 1: p_max(L5) = 17/32."""
    factors = np.broadcast_to(np.eye(2, dtype=complex), (5, 2, 2)).copy()
    factors[0] = np.diag([2.0, 0.5])
    return LocalOperatorChain(factors, "G")


def run(argv, capsys=None):
    code = main(argv)
    if capsys is None:
        return code, None
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def check_envelope(doc):
    jsonschema.validate(doc, SCHEMA)


def test_gen_writes_state_file(tmp_path):
    path = tmp_path / "ghz.json"
    assert main(["gen", "ghz", "--n", "4", "--out", str(path)]) == 0
    psi = read_state(path)
    assert psi.n == 4
    assert abs(psi.norm() - 1.0) < 1e-12


def test_gen_haar_seeded(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "haar", "--n", "3", "--seed", "7", "--out", str(p1)])
    main(["gen", "haar", "--n", "3", "--seed", "7", "--out", str(p2)])
    np.testing.assert_array_equal(read_state(p1).amplitudes,
                                  read_state(p2).amplitudes)


def test_gen_gabcd_missing_coefficients_is_usage_error(capsys):
    code = main(["gen", "gabcd"])
    assert code == 1
    assert "requires" in capsys.readouterr().err


def test_gen_gabcd_with_coefficients(tmp_path):
    path = tmp_path / "g.json"
    code = main(["gen", "gabcd", "--a", "1", "--b", "2+1j", "--c", "3",
                 "--d", "0.5", "--out", str(path)])
    assert code == 0
    assert read_state(path).n == 4


def test_analyze_envelope(tmp_path, capsys):
    path = tmp_path / "l5.json"
    write_state(make_ln(5), path)
    code, doc = run(["analyze", str(path)], capsys)
    assert code == 0
    check_envelope(doc)
    assert doc["command"] == "analyze"
    payload = doc["payload"]
    assert payload["n"] == 5
    assert payload["criticality"]["is_critical"]
    assert payload["lie_dim"] == 0
    assert not payload["f2"]["defined"]
    assert payload["f4"]["defined"]


def test_analyze_missing_file_is_input_error(capsys):
    assert main(["analyze", "/nonexistent/state.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_scale_haar_converges(tmp_path, capsys):
    state = tmp_path / "s.json"
    rep = tmp_path / "rep.json"
    main(["gen", "haar", "--n", "4", "--seed", "3", "--out", str(state)])
    code, doc = run(["scale", str(state), "--rep-out", str(rep)], capsys)
    assert code == 0
    check_envelope(doc)
    assert doc["payload"]["status"] == "converged"
    assert read_state(rep).n == 4


def test_scale_null_cone_exits_zero(tmp_path, capsys):
    state = tmp_path / "w3.json"
    write_state(make_w(3), state)
    code, doc = run(["scale", str(state)], capsys)
    assert code == 0
    assert doc["payload"]["status"] == "null_cone"


def test_scale_max_iter_exits_two(tmp_path, capsys):
    state = tmp_path / "s.json"
    main(["gen", "haar", "--n", "4", "--seed", "4", "--out", str(state)])
    code, doc = run(["scale", str(state), "--max-iter", "0"], capsys)
    assert code == 2
    assert doc["payload"]["status"] == "max_iter"


def test_scale_rejects_negative_max_iter(tmp_path, capsys):
    state = tmp_path / "s.json"
    main(["gen", "haar", "--n", "4", "--seed", "4", "--out", str(state)])
    assert main(["scale", str(state), "--max-iter", "-1"]) == 1
    err = capsys.readouterr().err
    assert "max_iter" in err and "Traceback" not in err


def test_stab_l5_witness(tmp_path, capsys):
    state = tmp_path / "l5.json"
    write_state(make_ln(5), state)
    code, doc = run(["stab", str(state), "--restarts", "16"], capsys)
    assert code == 0
    check_envelope(doc)
    payload = doc["payload"]
    assert payload["verdict"] == "non_trivial"
    assert payload["failed_gate"] == "phase_search"
    assert payload["gtilde_phase_hits"]
    assert payload["start_path"] == "pair_circle"  # T_12 of L5 has values (1/2, 1/4, 1/4)


def test_stab_rejects_zero_restarts(tmp_path, capsys):
    state = tmp_path / "h5.json"
    main(["gen", "haar", "--n", "5", "--seed", "0", "--out", str(state)])
    assert main(["stab", str(state), "--restarts", "0"]) == 1
    err = capsys.readouterr().err
    assert "restart" in err and "Traceback" not in err


def test_stab_rejects_zero_tol(tmp_path, capsys):
    # GHZ4 stops at the Lie gate before any search: the budget is checked first
    for psi in (make_gabcd(1, 2 + 1j, 3, 0.5), make_ghz(4)):
        state = tmp_path / "psi.json"
        write_state(psi, state)
        for tol in ("0", "nan", "inf", "-inf"):
            assert main(["stab", str(state), f"--tol={tol}"]) == 1  # "--tol -inf" reads a flag
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "tolerance" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    # a Haar state takes the exact path, which reads no seed; L4 the random one
    ["stab", "haar5.json"],
    ["stab", "l4.json"],
    ["gen", "haar", "--n", "3"],
    ["protocol", "l5.json", "c.json"],
    ["genericity", "--n", "4", "--samples", "1"],
], ids=["stab-haar", "stab-l4", "gen-haar", "protocol", "genericity"])
def test_negative_seed_exits_one(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_state(sample_haar_state(5, 0), "haar5.json")
    write_state(make_ln(4), "l4.json")
    write_state(make_ln(5), "l5.json")
    write_chain(l5_chain(), "c.json")
    assert main(argv + ["--seed=-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert "seed" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["analyze", "scale", "genericity"])
def test_non_finite_tol_exits_one(tmp_path, capsys, command, tol):
    # a NaN tol would keep no witness and count every sample as trivial
    state = tmp_path / "psi.json"
    write_state(make_gabcd(1, 2 + 1j, 3, 0.5), state)
    argv = ["genericity", "--n", "4", "--samples", "1"] if command == "genericity" \
        else [command, str(state)]
    assert main(argv + [f"--tol={tol}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "tolerance" in captured.err and "Traceback" not in captured.err


def test_pmax_and_protocol(tmp_path, capsys):
    state = tmp_path / "l5.json"
    chain = tmp_path / "g.json"
    write_state(make_ln(5), state)
    write_chain(l5_chain(), chain)

    code, doc = run(["pmax", str(state), str(chain), "--stabilizer", "trivial"],
                    capsys)
    assert code == 0
    check_envelope(doc)
    assert abs(doc["payload"]["p_max"] - 17 / 32) < 1e-12
    assert doc["payload"]["optimality_status"] == "exact_optimum"

    code, doc = run(["protocol", str(state), str(chain), "--trials", "2000"],
                    capsys)
    assert code == 0
    check_envelope(doc)
    sim = doc["payload"]["simulation"]
    assert sim["trials"] == 2000
    assert abs(sim["empirical_p"] - 17 / 32) < 0.05


def test_protocol_trials_take_constant_time(tmp_path, capsys):
    write_state(make_ln(5), tmp_path / "l5.json")
    write_chain(l5_chain(), tmp_path / "c.json")
    argv = ["protocol", str(tmp_path / "l5.json"), str(tmp_path / "c.json")]
    start = time.perf_counter()
    code, doc = run([*argv, "--trials", "1000000000000"], capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert abs(doc["payload"]["simulation"]["empirical_p"] - 17 / 32) < 1e-5
    assert main([*argv, "--trials", "9223372036854775808"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trials" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("kind,edit", [
    pytest.param("chain", lambda c: c.update(factors=c["factors"][:4]),
                 id="fewer-factors-than-n"),
    pytest.param("chain", lambda c: c.update(factors=c["factors"] + c["factors"][:1]),
                 id="more-factors-than-n"),
    pytest.param("chain", lambda c: c.update(factors=[[[[1], [0]], [[0], [1]]]] * 5),
                 id="one-number-pairs"),
    pytest.param("chain", lambda c: c.update(scalar=[1]), id="one-number-scalar"),
    pytest.param("chain", lambda c: c["factors"][0][0].__setitem__(0, [10**400, 0]),
                 id="int-beyond-float-range"),
    pytest.param("chain", lambda c: c["factors"][2][0].__setitem__(1, [float("nan"), 0]),
                 id="nan-entry"),
    pytest.param("state", lambda s: s["amplitudes"].__setitem__(0, [10**400, 0]),
                 id="state-int-beyond-float-range"),
    pytest.param("state", lambda s: s["amplitudes"].__setitem__(0, [1]),
                 id="state-one-number-pair"),
    pytest.param("state", lambda s: s.update(n=10**8), id="state-huge-n"),
    pytest.param("state", lambda s: s.update(n=float("inf")), id="state-infinite-n"),
    pytest.param("state", lambda s: s.update(n=5.5), id="state-fractional-n"),
    pytest.param("chain", lambda c: c.update(n=5.5), id="fractional-n"),
    pytest.param("state", lambda s: s.update(n=True, amplitudes=s["amplitudes"][:2]),
                 id="state-boolean-n"),
    pytest.param("chain", lambda c: c.update(n=True, factors=c["factors"][:1]),
                 id="boolean-n"),
    pytest.param("state", lambda s: s["amplitudes"].__setitem__(0, [False, 0.0]),
                 id="state-boolean-in-pair"),
    pytest.param("chain", lambda c: c["factors"][1][0].__setitem__(0, [True, 0.0]),
                 id="boolean-in-pair"),
    pytest.param("chain", lambda c: c.update(scalar=[True, 0]), id="boolean-scalar"),
])
def test_malformed_files_exit_one_without_traceback(kind, edit, tmp_path, capsys):
    state, chain = tmp_path / "l5.json", tmp_path / "c.json"
    write_state(make_ln(5), state)
    write_chain(l5_chain(), chain)
    path = {"state": state, "chain": chain}[kind]
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    assert main(["pmax", str(state), str(chain)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {kind} file")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_deeply_nested_file_exits_one_without_traceback(tmp_path, capsys):
    state = tmp_path / "deep.json"
    state.write_text('{"n": 1, "amplitudes": ' + "[" * 10**5 + "]" * 10**5 + "}")
    assert main(["analyze", str(state)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read state file") and "Traceback" not in err


def test_pmax_chain_length_mismatch(tmp_path, capsys):
    state = tmp_path / "l5.json"
    chain = tmp_path / "g.json"
    write_state(make_ln(5), state)
    factors = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy()
    write_chain(LocalOperatorChain(factors, "G"), chain)
    assert main(["pmax", str(state), str(chain)]) == 1
    assert "factors" in capsys.readouterr().err


def test_genericity_command(tmp_path):
    out = tmp_path / "report.json"
    code = main(["genericity", "--n", "4", "--samples", "2",
                 "--restarts", "4", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    check_envelope(doc)
    assert doc["payload"]["samples"] == 2
    assert len(doc["payload"]["records"]) == 2


def test_genericity_rejects_zero_restarts(capsys):
    assert main(["genericity", "--n", "5", "--samples", "1",
                 "--restarts", "0"]) == 1
    err = capsys.readouterr().err
    assert "restart" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,parameters", [
    (["analyze", "l5.json"], {"state": "l5.json", "tol": 1e-10}),
    (["analyze", "l5.json", "--tol", "1e-6"], {"state": "l5.json", "tol": 1e-6}),
    (["scale", "l5.json"], {"state": "l5.json", "tol": 1e-10, "max_iter": 10000}),
    (["scale", "l5.json", "--tol", "1e-9", "--max-iter", "5", "--rep-out", "rep.json"],
     {"state": "l5.json", "tol": 1e-9, "max_iter": 5}),
    (["stab", "l5.json", "--restarts", "4"],
     {"state": "l5.json", "restarts": 4, "seed": 0, "tol": 1e-8}),
    (["stab", "l5.json", "--seed", "3", "--tol", "1e-7", "--restarts", "8"],
     {"state": "l5.json", "restarts": 8, "seed": 3, "tol": 1e-7}),
    (["pmax", "l5.json", "c.json"],
     {"state": "l5.json", "chain": "c.json", "stabilizer": "unknown"}),
    (["pmax", "l5.json", "c.json", "--stabilizer", "trivial"],
     {"state": "l5.json", "chain": "c.json", "stabilizer": "trivial"}),
    (["protocol", "l5.json", "c.json", "--trials", "500", "--seed", "4"],
     {"state": "l5.json", "chain": "c.json", "trials": 500, "seed": 4,
      "stabilizer": "unknown"}),
    (["protocol", "l5.json", "c.json", "--stabilizer", "nontrivial"],
     {"state": "l5.json", "chain": "c.json", "trials": 10000, "seed": 0,
      "stabilizer": "nontrivial"}),
    (["genericity", "--n", "4", "--samples", "2", "--restarts", "4"],
     {"n": 4, "samples": 2, "seed": 0, "restarts": 4, "tol": 1e-8}),
    (["genericity", "--n", "3", "--samples", "2", "--seed", "5", "--tol", "1e-7",
      "--restarts", "2"],
     {"n": 3, "samples": 2, "seed": 5, "restarts": 2, "tol": 1e-7}),
])
def test_report_echoes_parameters(argv, parameters, tmp_path, monkeypatch, capsys):
    """The echo is every parsed argument but the output paths, in declaration order."""
    monkeypatch.chdir(tmp_path)
    write_state(make_ln(5), "l5.json")
    write_chain(l5_chain(), "c.json")
    _, doc = run(argv, capsys)
    check_envelope(doc)
    assert doc["command"] == argv[0]
    assert list(doc["parameters"].items()) == list(parameters.items())


@pytest.mark.parametrize("argv", [
    ["gen", "ghz", "--tol", "-1"],
    ["analyze", "l5.json", "--seed", "1"],
    ["scale", "l5.json", "--seed", "1"],
    ["pmax", "l5.json", "c.json", "--tol", "5"],
    ["pmax", "l5.json", "c.json", "--seed", "9"],
    ["protocol", "l5.json", "c.json", "--tol", "5"],
])
def test_options_a_command_does_not_read_are_parse_errors(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["stab"], "required: state"),
    (["gen", "haar", "--n", "x"], "argument --n"),
    (["frobnicate"], "invalid choice"),
])
def test_parse_errors_exit_one(argv, message, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err and "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["gen", "haar", "--n", "40"],
                                  ["gen", "ghz", "--n", "0"],
                                  ["genericity", "--n", "40"]])
def test_qubit_bound_is_checked_before_allocation(argv, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("a state was allocated")
    monkeypatch.setattr(cli, "sample_haar_state", unreachable)
    monkeypatch.setattr(cli, "genericity_report", unreachable)
    monkeypatch.setitem(cli._NAMED_STATES, "ghz", unreachable)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"from 1 to {cli.MAX_QUBITS}" in err and "Traceback" not in err


def test_qubit_bound_is_inclusive(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "sample_haar_state", lambda n, seed: seen.append(n) or make_ln(3))
    assert main(["gen", "haar", "--n", str(cli.MAX_QUBITS)]) == 0
    assert seen == [cli.MAX_QUBITS]


@pytest.mark.parametrize("argv", [["--help"], ["stab", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert "usage:" in capsys.readouterr().out
