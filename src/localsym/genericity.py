"""Monte Carlo census of product-operator symmetries.

Samples Haar-random states, drives each to its critical representative,
and runs the symmetry probes under a fixed search budget.  Identical
(n, samples, seed, budget) inputs reproduce the report exactly; samples
derive independent seeds, so any execution schedule gives the same
result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .states import PureState, make_ghz, make_w, make_ln, make_gabcd, sample_haar_state, derive_rng
from .critical import criticality_report
from .stabilizer import gtilde_triviality_probe, lie_stabilizer_dim

__all__ = ["SearchBudget", "SampleRecord", "GenericityReport",
           "genericity_report", "benchmark_census"]


@dataclass(frozen=True)
class SearchBudget:
    restarts: int = 32
    tol: float = 1e-8


@dataclass
class SampleRecord:
    index: int
    lie_dim: int | None
    smallest_singular_value: float | None
    discrete_candidate_count: int
    gtilde_verdict: str
    failed_gate: str | None


@dataclass
class GenericityReport:
    n: int
    samples: int
    seed: int
    budget: SearchBudget
    records: list[SampleRecord]
    fraction_lie_trivial: float
    fraction_gtilde_trivial: float


def _probe_record(index: int, psi: PureState, budget: SearchBudget,
                  probe_seed: int) -> SampleRecord:
    verdict = gtilde_triviality_probe(psi, restarts=budget.restarts,
                                      seed=probe_seed, tol=budget.tol)
    probe = verdict.probe
    if probe is None:
        return SampleRecord(index, None, None, 0, verdict.verdict, verdict.failed_gate)
    # singular_values holds 3n >= 6 values: the Lie probe pads a short svd
    return SampleRecord(index, probe.lie_dim, float(probe.singular_values[-1]),
                        len(probe.discrete_candidates), verdict.verdict, verdict.failed_gate)


def genericity_report(n: int, samples: int, seed: int = 0,
                      budget: SearchBudget = SearchBudget()) -> GenericityReport:
    """Stabilizer census over Haar-random n-qubit states."""
    if n < 2:
        raise ValueError("need n >= 2")
    if samples < 1:
        raise ValueError("need at least one sample")
    records = []
    for i in range(samples):
        psi = sample_haar_state(n, derive_rng(seed, i, 0))
        records.append(_probe_record(i, psi, budget,
                                     int(derive_rng(seed, i, 1).integers(2**31))))
    frac_lie = sum(r.lie_dim == 0 for r in records) / samples
    frac_triv = sum(r.gtilde_verdict == "trivial" for r in records) / samples
    return GenericityReport(n, samples, seed, budget, records, frac_lie, frac_triv)


def benchmark_census(seed: int = 0, budget: SearchBudget = SearchBudget()
                     ) -> list[dict]:
    """Fixed battery of named states run through all probes."""
    battery: list[tuple[str, PureState]] = [
        ("Bell", make_ln(2)),
        ("GHZ3", make_ghz(3)),
        ("W3", make_w(3)),
        ("GHZ4", make_ghz(4)),
        ("Psi(1, 2+1j, 3, 0.5)", make_gabcd(1, 2 + 1j, 3, 0.5)),
    ]
    battery += [(f"L{n}", make_ln(n)) for n in range(4, 9)]
    rows = []
    for i, (name, psi) in enumerate(battery):
        crit = criticality_report(psi, tol=1e-10)
        probe = lie_stabilizer_dim(psi)
        verdict = gtilde_triviality_probe(
            psi, restarts=budget.restarts,
            seed=int(derive_rng(seed, i).integers(2**31)), tol=budget.tol)
        rows.append({
            "state": name,
            "n": psi.n,
            "is_critical": crit.is_critical,
            "max_criticality_deviation": crit.max_deviation,
            "lie_dim": probe.lie_dim,
            "discrete_candidates": (len(verdict.probe.discrete_candidates)
                                    if verdict.probe else 0),
            "phase_hits": (len(verdict.probe.gtilde_phase_hits)
                           if verdict.probe else 0),
            "gtilde_verdict": verdict.verdict,
            "failed_gate": verdict.failed_gate,
        })
    return rows
