import json
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from localsym import LocalOperatorChain, PureState, sample_haar_state, sample_chain
from localsym.io import (
    state_to_dict,
    state_from_dict,
    write_state,
    read_state,
    chain_to_dict,
    chain_from_dict,
    write_chain,
    read_chain,
    jsonify,
)


def test_state_roundtrip_exact(tmp_path):
    psi = sample_haar_state(4, 0)
    path = tmp_path / "state.json"
    write_state(psi, path)
    back = read_state(path)
    assert back.n == 4
    np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)


def test_state_file_is_plain_json(tmp_path):
    psi = sample_haar_state(2, 1)
    path = tmp_path / "state.json"
    write_state(psi, path)
    data = json.loads(path.read_text())
    assert data["n"] == 2
    assert len(data["amplitudes"]) == 4
    assert all(len(pair) == 2 for pair in data["amplitudes"])


def test_state_dict_length_validation():
    with pytest.raises(ValueError):
        state_from_dict({"n": 3, "amplitudes": [[1.0, 0.0]] * 4})


def test_state_dict_does_not_form_two_to_the_file_n():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="2\\*\\*n amplitudes"):
        state_from_dict({"n": 10**8, "amplitudes": [[1.0, 0.0]] * 4})
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("last,message", [
    ([1.0], "pairs"),
    ([1.0, 0.0, 0.0], "pairs"),
    (["1", 0.0], "numbers"),
    ([None, 0.0], "numbers"),
    ([10**400, 0.0], "numbers"),
    ([float("inf"), 0.0], "finite"),
])
def test_state_dict_rejects_malformed_amplitudes(last, message):
    with pytest.raises(ValueError, match=message):
        state_from_dict({"n": 2, "amplitudes": [[1.0, 0.0]] * 3 + [last]})


finite = st.floats(allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)


def reference_pairs(values) -> list:
    """The per-element writer: one [re, im] pair per complex scalar."""
    if np.ndim(values) == 0:
        return [float(np.real(values)), float(np.imag(values))]
    return [reference_pairs(v) for v in values]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@example([complex(-0.0, 5e-324), complex(-5e-324, -0.0)])
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(complexes, min_size=2**n, max_size=2**n)))
def test_state_json_round_trip_is_bit_exact(values):
    psi = PureState(len(values).bit_length() - 1, np.array(values, dtype=complex))
    text = json.dumps(state_to_dict(psi))
    assert text == json.dumps({"n": psi.n, "amplitudes": reference_pairs(psi.amplitudes)})
    assert same_bits(state_from_dict(json.loads(text)).amplitudes, psi.amplitudes)


# a unipotent factor [[d, b], [z, d]] with d = +-1 and z = +-0 has determinant
# exactly 1 for any finite b, so the "G" tag accepts arbitrary off-diagonals
signed_units = st.builds(complex, st.sampled_from([1.0, -1.0]), st.sampled_from([0.0, -0.0]))
signed_zeros = st.builds(complex, st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, -0.0]))
unipotent = st.tuples(signed_units, complexes, signed_zeros).map(
    lambda f: [[f[0], f[1]], [f[2], f[0]]])


@settings(max_examples=60, deadline=None)
@example([[[complex(-1.0, -0.0), complex(5e-324, -0.0)],
           [complex(-0.0, 0.0), complex(-1.0, -0.0)]]], complex(-0.0, -5e-324))
@given(st.lists(unipotent, min_size=1, max_size=6), complexes)
def test_chain_json_round_trip_is_bit_exact(factors, scalar):
    chain = LocalOperatorChain(np.array(factors, dtype=complex), "G", scalar=scalar)
    text = json.dumps(chain_to_dict(chain))
    assert text == json.dumps({"n": chain.n, "group": "G",
                               "factors": reference_pairs(chain.factors),
                               "scalar": reference_pairs(chain.scalar)})
    back = chain_from_dict(json.loads(text))
    assert same_bits(back.factors, chain.factors)
    assert same_bits(back.scalar, complex(scalar))


def test_chain_roundtrip_exact(tmp_path):
    chain = sample_chain(3, "G", 2)
    path = tmp_path / "chain.json"
    write_chain(chain, path)
    back = read_chain(path)
    assert back.group_tag == "G"
    assert back.scalar == chain.scalar
    np.testing.assert_array_equal(back.factors, chain.factors)


def test_chain_dict_default_scalar():
    chain = sample_chain(2, "K", 3)
    data = chain_to_dict(chain)
    del data["scalar"]
    back = chain_from_dict(data)
    assert back.scalar == 1.0


def test_chain_dict_validates_group():
    data = chain_to_dict(sample_chain(2, "K", 4))
    data["group"] = "X"
    with pytest.raises(ValueError):
        chain_from_dict(data)


def test_jsonify_handles_numpy_types():
    doc = {
        "a": np.float64(1.5),
        "b": np.int32(3),
        "c": np.bool_(True),
        "d": np.array([1.0, 2.0]),
        "e": 1 + 2j,
        "f": np.complex128(4.0),
    }
    assert json.loads(json.dumps(doc, default=jsonify)) == {
        "a": 1.5, "b": 3, "c": True, "d": [1.0, 2.0], "e": [1.0, 2.0], "f": 4.0}


def test_jsonify_rejects_unsupported_types():
    with pytest.raises(TypeError, match="set"):
        json.dumps({"a": {1, 2}}, default=jsonify)
