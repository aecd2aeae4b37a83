"""JSON file formats for states, chains, and report envelopes.

State file: {"n": int, "amplitudes": [[re, im], ...]} with 2**n entries
in big-endian index order (qubit 1 = most significant bit).
Chain file: {"n": int, "group": "G"|"K"|"Gt"|"Kt",
"factors": [[[re, im] x2] x2 row-major, x n]} plus an optional
"scalar": [re, im].

Complex arrays are written and read whole, with repr-exact doubles, so
a round trip is bit-exact (signed zeros and subnormals included).
Readers reject a non-integer ``n``, non-numeric or non-finite values,
pairs that are not two numbers, and amplitude or factor counts other
than ``n`` declares.
"""

from __future__ import annotations

import json
import operator
from pathlib import Path
from typing import Any

import numpy as np

from .states import PureState, LocalOperatorChain

__all__ = [
    "state_to_dict", "state_from_dict", "write_state", "read_state",
    "chain_to_dict", "chain_from_dict", "write_chain", "read_chain",
    "complex_pair", "jsonify",
]


def complex_pair(z) -> list:
    """A complex scalar or array as [re, im] pairs nested like its shape."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], -1).tolist()


def _complex_array(data, shape: tuple, field: str) -> np.ndarray:
    """The inverse of ``complex_pair`` for a field declared to have ``shape``."""
    try:
        pairs = np.array(data)
    except ValueError as exc:  # ragged nesting
        raise ValueError(f"{field}: not an array of [re, im] pairs") from exc
    if pairs.dtype.kind not in "iuf" or not np.isfinite(pairs).all():
        raise ValueError(f"{field}: expected finite numbers")
    if pairs.shape != (*shape, 2):
        raise ValueError(f"{field}: expected shape {(*shape, 2)}, got {pairs.shape}")
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def state_to_dict(psi: PureState) -> dict:
    return {"n": psi.n, "amplitudes": complex_pair(psi.amplitudes)}


def state_from_dict(data: dict) -> PureState:
    n = operator.index(data["n"])
    count = len(data["amplitudes"])
    # compare exponents first: the file's n is not trusted to form 2**n
    if n != count.bit_length() - 1 or count != 2**n:
        raise ValueError(f"state file: n = {n} needs 2**n amplitudes, got {count}")
    return PureState(n, _complex_array(data["amplitudes"], (count,), "amplitudes"))


def write_state(psi: PureState, path) -> None:
    Path(path).write_text(json.dumps(state_to_dict(psi)) + "\n")


def read_state(path) -> PureState:
    return state_from_dict(json.loads(Path(path).read_text()))


def chain_to_dict(chain: LocalOperatorChain) -> dict:
    return {
        "n": chain.n,
        "group": chain.group_tag,
        "factors": complex_pair(chain.factors),
        "scalar": complex_pair(chain.scalar),
    }


def chain_from_dict(data: dict) -> LocalOperatorChain:
    n = operator.index(data["n"])
    factors = _complex_array(data["factors"], (n, 2, 2), "factors")
    scalar = _complex_array(data.get("scalar", [1.0, 0.0]), (), "scalar")
    return LocalOperatorChain(factors, data["group"], scalar=complex(scalar))


def write_chain(chain: LocalOperatorChain, path) -> None:
    Path(path).write_text(json.dumps(chain_to_dict(chain)) + "\n")


def read_chain(path) -> LocalOperatorChain:
    return chain_from_dict(json.loads(Path(path).read_text()))


def jsonify(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays and complex values to JSON."""
    if isinstance(obj, dict):
        return {k: jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        return complex_pair(obj) if np.imag(obj) else float(np.real(obj))
    if isinstance(obj, np.generic):  # numpy float, int or bool
        return obj.item()
    return obj
