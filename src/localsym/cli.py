"""Command-line front end.

Subcommands: gen, analyze, scale, stab, pmax, protocol, genericity.
Reports are JSON envelopes carrying a parameter echo sufficient to
reproduce the run (seeds, tolerances, budgets included).  Exit codes:
0 success or verdict, 1 usage/input error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .states import (
    make_w, make_ghz, make_ln, make_gabcd, sample_haar_state,
)
from .invariants import f2, f4
from .critical import criticality_report, scale_to_critical
from .stabilizer import lie_stabilizer_dim, gtilde_triviality_probe
from .convert import pmax, build_protocol, simulate_protocol
from .genericity import genericity_report, SearchBudget
from .io import (
    read_state, read_chain, write_state, state_to_dict, chain_to_dict,
    jsonify, complex_pair,
)


class CliError(Exception):
    """Usage or input error; maps to exit code 1."""


def _envelope(command: str, parameters: dict, payload: dict) -> dict:
    return {
        "tool": "localsym",
        "version": __version__,
        "command": command,
        "parameters": jsonify(parameters),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "payload": jsonify(payload),
    }


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(read, path: str, kind: str):
    """read(path), with any file or format error as a CliError naming the kind of file."""
    try:
        return read(path)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {kind} file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    name = args.state
    normalized = not args.unnormalized
    if name == "w":
        psi = make_w(args.n, normalized)
    elif name == "ghz":
        psi = make_ghz(args.n, normalized)
    elif name == "ln":
        psi = make_ln(args.n, normalized)
    elif name == "gabcd":
        coeffs = [args.a, args.b, args.c, args.d]
        if any(c is None for c in coeffs):
            raise CliError("gen gabcd requires --a --b --c --d")
        psi = make_gabcd(*(complex(c) for c in coeffs), normalized)
    elif name == "haar":
        psi = sample_haar_state(args.n, args.seed)
    else:  # pragma: no cover - argparse choices guard this
        raise CliError(f"unknown state name {name!r}")
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
    v2, v4 = f2(psi), None
    if psi.n % 2 == 1 and psi.n >= 3:
        v4 = f4(psi)
    payload = {
        "n": psi.n,
        "norm": nrm,
        "f2": {"value": complex_pair(v2.value), "defined": v2.defined},
        "f4": ({"value": complex_pair(v4.value), "defined": True}
               if v4 is not None else {"value": [0.0, 0.0], "defined": False}),
        "criticality": {
            "per_qubit_deviation": crit.per_qubit_deviation,
            "max_deviation": crit.max_deviation,
            "is_critical": crit.is_critical,
            "tolerance": crit.tolerance,
        },
        "lie_dim": probe.lie_dim,
        "singular_values": probe.singular_values,
    }
    _emit(_envelope("analyze", {"state": args.state, "tol": args.tol}, payload),
          args.out)
    return 0


def cmd_scale(args) -> int:
    psi = _load(read_state, args.state, "state").normalized()
    result = scale_to_critical(psi, tol=args.tol, max_iter=args.max_iter)
    payload = {
        "status": result.status,
        "iterations": result.iterations,
        "norm_trajectory": result.norm_trajectory,
        "accumulated_chain": chain_to_dict(result.accumulated_chain),
        "scalar": complex_pair(result.scalar),
    }
    if result.representative is not None:
        payload["representative"] = state_to_dict(result.representative)
        if args.rep_out:
            write_state(result.representative, args.rep_out)
    _emit(_envelope("scale", {"state": args.state, "tol": args.tol,
                              "max_iter": args.max_iter}, payload), args.out)
    return 2 if result.status == "max_iter" else 0


def cmd_stab(args) -> int:
    psi = _load(read_state, args.state, "state").normalized()
    verdict = gtilde_triviality_probe(psi, restarts=args.restarts,
                                      seed=args.seed, tol=args.tol)
    payload = {
        "verdict": verdict.verdict,
        "failed_gate": verdict.failed_gate,
        "restarts": verdict.restarts,
        "tol": verdict.tol,
    }
    if verdict.probe is not None:
        payload.update({
            "lie_dim": verdict.probe.lie_dim,
            "singular_values": verdict.probe.singular_values,
            "in_c": verdict.probe.in_c,
            "discrete_candidates": [
                {"chain": chain_to_dict(chain), "residual": res}
                for chain, res in verdict.probe.discrete_candidates
            ],
            "gtilde_phase_hits": [
                {"phase": complex_pair(t), "chain": chain_to_dict(chain),
                 "residual": res}
                for t, chain, res in verdict.probe.gtilde_phase_hits
            ],
        })
    _emit(_envelope("stab", {"state": args.state, "restarts": args.restarts,
                             "seed": args.seed, "tol": args.tol}, payload),
          args.out)
    return 0


def _plan_payload(plan) -> dict:
    payload = {
        "p_max": plan.p_max,
        "per_party_lambda": plan.per_party_lambda,
        "optimality_status": plan.optimality,
        "connector": chain_to_dict(plan.connector),
        "target": state_to_dict(plan.target),
    }
    if plan.measurements is not None:
        payload["measurements"] = [
            {"N0": [[complex_pair(z) for z in row] for row in n0],
             "N1": [[complex_pair(z) for z in row] for row in n1]}
            for n0, n1 in plan.measurements
        ]
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
    _emit(_envelope("pmax", {"state": args.state, "chain": args.chain,
                             "stabilizer": args.stabilizer},
                    _plan_payload(plan)), args.out)
    return 0


def cmd_protocol(args) -> int:
    psi, chain, trivial = _conversion_inputs(args)
    plan = build_protocol(psi, chain, trivial)
    stats = simulate_protocol(plan, psi, args.trials, args.seed)
    payload = _plan_payload(plan)
    payload["simulation"] = {
        "trials": stats.trials,
        "successes": stats.successes,
        "empirical_p": stats.empirical_p,
        "mean_success_fidelity": stats.mean_success_fidelity,
        "seed": stats.seed,
    }
    _emit(_envelope("protocol", {"state": args.state, "chain": args.chain,
                                 "trials": args.trials, "seed": args.seed,
                                 "stabilizer": args.stabilizer},
                    payload), args.out)
    return 0


def cmd_genericity(args) -> int:
    budget = SearchBudget(restarts=args.restarts, tol=args.tol)
    report = genericity_report(args.n, args.samples, seed=args.seed, budget=budget)
    payload = {
        "n": report.n,
        "samples": report.samples,
        "seed": report.seed,
        "budget": {"restarts": budget.restarts, "tol": budget.tol},
        "fraction_lie_trivial": report.fraction_lie_trivial,
        "fraction_gtilde_trivial": report.fraction_gtilde_trivial,
        "records": [
            {"index": r.index, "lie_dim": r.lie_dim,
             "smallest_singular_value": r.smallest_singular_value,
             "discrete_candidate_count": r.discrete_candidate_count,
             "gtilde_verdict": r.gtilde_verdict,
             "failed_gate": r.failed_gate}
            for r in report.records
        ],
    }
    _emit(_envelope("genericity", {"n": args.n, "samples": args.samples,
                                   "seed": args.seed, "restarts": args.restarts,
                                   "tol": args.tol}, payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localsym",
        description="Local symmetries and conversions of multiqubit pure states",
    )

    def common(p, tol_default=1e-10):
        p.add_argument("--tol", type=float, default=tol_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named state file")
    p.add_argument("state", choices=["w", "ghz", "ln", "gabcd", "haar"])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--unnormalized", action="store_true")
    for coeff in "abcd":
        p.add_argument(f"--{coeff}", default=None,
                       help="gabcd coefficient (complex literal)")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="invariants, criticality, stabilizer dimension")
    p.add_argument("state")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scale", help="normalize to the critical orbit representative")
    p.add_argument("state")
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--rep-out", default=None,
                   help="write the representative state file here")
    common(p)
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("stab", help="discrete/continuous symmetry probe")
    p.add_argument("state")
    p.add_argument("--restarts", type=int, default=32)
    common(p, tol_default=1e-8)
    p.set_defaults(func=cmd_stab)

    for name, func in (("pmax", cmd_pmax), ("protocol", cmd_protocol)):
        p = sub.add_parser(name, help="optimal conversion probability / protocol")
        p.add_argument("state")
        p.add_argument("chain")
        p.add_argument("--stabilizer", choices=["trivial", "nontrivial", "unknown"],
                       default="unknown")
        if name == "protocol":
            p.add_argument("--trials", type=int, default=10_000)
        common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("genericity", help="Monte Carlo stabilizer census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--restarts", type=int, default=32)
    common(p, tol_default=1e-8)
    p.set_defaults(func=cmd_genericity)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
