"""Command-line front end.

Subcommands: gen, analyze, scale, stab, pmax, protocol, genericity.
Each subcommand declares only the options its ``cmd_*`` reads.  Reports
are JSON envelopes whose ``parameters`` echo is the parsed arguments
themselves, all but the output paths, so it reproduces the run (seeds,
tolerances, budgets included).  ``--n`` is bounded by ``MAX_QUBITS``
before anything is allocated.  Exit codes: 0 success or verdict,
1 usage or input error (argparse parse errors included), 2 numerical
non-convergence (``scale`` stopping at ``--max-iter``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone

from . import __version__
from .states import (
    make_w, make_ghz, make_ln, make_gabcd, sample_haar_state,
)
from .invariants import SlipValue, f2, f4
from .critical import criticality_report, scale_to_critical
from .stabilizer import lie_stabilizer_dim, gtilde_triviality_probe
from .convert import pmax, build_protocol, simulate_protocol
from .genericity import genericity_report, SearchBudget
from .io import (
    read_state, read_chain, write_state, state_to_dict, chain_to_dict,
    jsonify, complex_pair,
)


MAX_QUBITS = 20  # bound on --n: one 2**20-amplitude state is 16 MiB
_NOT_ECHOED = ("func", "command", "out", "rep_out")


class CliError(Exception):
    """Usage or input error; maps to exit code 1."""


def _qubit_count(text: str) -> int:
    """Type of --n: an integer from 1 to MAX_QUBITS, checked before any allocation."""
    if not (text.isdecimal() and 1 <= int(text) <= MAX_QUBITS):
        raise argparse.ArgumentTypeError(
            f"need an integer from 1 to {MAX_QUBITS}, got {text!r}")
    return int(text)


def _report(args, payload: dict) -> None:
    """Write the JSON envelope to --out or stdout; the parameter echo is
    every parsed argument but the output paths."""
    parameters = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
    text = json.dumps({
        "tool": "localsym",
        "version": __version__,
        "command": args.command,
        "parameters": jsonify(parameters),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "payload": jsonify(payload),
    }, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _fields(obj, *names: str) -> dict:
    """The named attributes of a result object, as one payload section."""
    return {name: getattr(obj, name) for name in names}


def _load(read, path: str, kind: str):
    """read(path), with any file or format error as a CliError naming the kind of file."""
    try:
        return read(path)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CliError(f"cannot read {kind} file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_NAMED_STATES = {"w": make_w, "ghz": make_ghz, "ln": make_ln}


def cmd_gen(args) -> int:
    normalized = not args.unnormalized
    if args.state in _NAMED_STATES:
        psi = _NAMED_STATES[args.state](args.n, normalized)
    elif args.state == "haar":
        psi = sample_haar_state(args.n, args.seed)
    else:
        coeffs = [args.a, args.b, args.c, args.d]
        if None in coeffs:
            raise CliError("gen gabcd requires --a --b --c --d")
        psi = make_gabcd(*(complex(c) for c in coeffs), normalized)
    if args.out:
        write_state(psi, args.out)
    else:
        print(json.dumps(state_to_dict(psi)))
    return 0


def cmd_analyze(args) -> int:
    psi = _load(read_state, args.state, "state")
    nrm = psi.norm()
    unit = psi.normalized()
    crit = criticality_report(unit, tol=args.tol)
    probe = lie_stabilizer_dim(unit)
    v2 = f2(psi)
    v4 = f4(psi) if psi.n % 2 == 1 and psi.n >= 3 else SlipValue(0.0, 4, defined=False)
    payload = {
        "n": psi.n,
        "norm": nrm,
        "f2": {"value": complex_pair(v2.value), "defined": v2.defined},
        "f4": {"value": complex_pair(v4.value), "defined": v4.defined},
        "criticality": _fields(crit, "per_qubit_deviation", "max_deviation",
                               "is_critical", "tolerance"),
        **_fields(probe, "lie_dim", "singular_values"),
    }
    _report(args, payload)
    return 0


def cmd_scale(args) -> int:
    psi = _load(read_state, args.state, "state").normalized()
    result = scale_to_critical(psi, tol=args.tol, max_iter=args.max_iter)
    payload = {
        **_fields(result, "status", "iterations", "norm_trajectory"),
        "accumulated_chain": chain_to_dict(result.accumulated_chain),
        "scalar": complex_pair(result.scalar),
    }
    if result.representative is not None:
        payload["representative"] = state_to_dict(result.representative)
        if args.rep_out:
            write_state(result.representative, args.rep_out)
    _report(args, payload)
    return 2 if result.status == "max_iter" else 0


def cmd_stab(args) -> int:
    psi = _load(read_state, args.state, "state").normalized()
    verdict = gtilde_triviality_probe(psi, restarts=args.restarts,
                                      seed=args.seed, tol=args.tol)
    payload = _fields(verdict, "verdict", "failed_gate", "restarts", "tol")
    probe = verdict.probe
    if probe is not None:
        payload.update({
            **_fields(probe, "lie_dim", "singular_values", "in_c", "start_path"),
            "discrete_candidates": [
                {"chain": chain_to_dict(chain), "residual": res}
                for chain, res in probe.discrete_candidates
            ],
            "gtilde_phase_hits": [
                {"phase": complex_pair(t), "chain": chain_to_dict(chain),
                 "residual": res}
                for t, chain, res in probe.gtilde_phase_hits
            ],
        })
    _report(args, payload)
    return 0


def _plan_payload(plan) -> dict:
    payload = {
        **_fields(plan, "p_max", "per_party_lambda"),
        "optimality_status": plan.optimality,
        "connector": chain_to_dict(plan.connector),
        "target": state_to_dict(plan.target),
    }
    if plan.measurements is not None:
        payload["measurements"] = [{"N0": complex_pair(n0), "N1": complex_pair(n1)}
                                   for n0, n1 in plan.measurements]
    return payload


def _conversion_inputs(args):
    psi = _load(read_state, args.state, "state").normalized()
    chain = _load(read_chain, args.chain, "chain")
    if chain.n != psi.n:
        raise CliError(
            f"state has {psi.n} qubits but chain has {chain.n} factors")
    trivial = {"trivial": True, "nontrivial": False, "unknown": None}[args.stabilizer]
    return psi, chain, trivial


def cmd_pmax(args) -> int:
    psi, chain, trivial = _conversion_inputs(args)
    plan = pmax(psi, chain, trivial)
    _report(args, _plan_payload(plan))
    return 0


def cmd_protocol(args) -> int:
    psi, chain, trivial = _conversion_inputs(args)
    plan = build_protocol(psi, chain, trivial)
    stats = simulate_protocol(plan, psi, args.trials, args.seed)
    payload = _plan_payload(plan)
    payload["simulation"] = asdict(stats)
    _report(args, payload)
    return 0


def cmd_genericity(args) -> int:
    budget = SearchBudget(restarts=args.restarts, tol=args.tol)
    report = genericity_report(args.n, args.samples, seed=args.seed, budget=budget)
    payload = {
        **_fields(report, "n", "samples", "seed"),
        "budget": asdict(budget),
        **_fields(report, "fraction_lie_trivial", "fraction_gtilde_trivial"),
        "records": [asdict(r) for r in report.records],
    }
    _report(args, payload)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, declaring only the options it reads.

    Declaration order is the key order of the parameter echo.
    """
    parser = argparse.ArgumentParser(
        prog="localsym",
        description="Local symmetries and conversions of multiqubit pure states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named state file")
    p.add_argument("state", choices=[*_NAMED_STATES, "gabcd", "haar"])
    p.add_argument("--n", type=_qubit_count, default=4)
    p.add_argument("--unnormalized", action="store_true")
    for coeff in "abcd":
        p.add_argument(f"--{coeff}", default=None,
                       help="gabcd coefficient (complex literal)")
    p.add_argument("--seed", type=int, default=0, help="seed of the haar state")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="invariants, criticality, stabilizer dimension")
    p.add_argument("state")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scale", help="normalize to the critical orbit representative")
    p.add_argument("state")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--rep-out", default=None,
                   help="write the representative state file here")
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("stab", help="discrete/continuous symmetry probe")
    p.add_argument("state")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_stab)

    for name, func in (("pmax", cmd_pmax), ("protocol", cmd_protocol)):
        p = sub.add_parser(name, help="optimal conversion probability / protocol")
        p.add_argument("state")
        p.add_argument("chain")
        if name == "protocol":
            p.add_argument("--trials", type=int, default=10_000)
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--stabilizer", choices=["trivial", "nontrivial", "unknown"],
                       default="unknown")
        p.set_defaults(func=func)

    p = sub.add_parser("genericity", help="Monte Carlo stabilizer census")
    p.add_argument("--n", type=_qubit_count, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_genericity)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
