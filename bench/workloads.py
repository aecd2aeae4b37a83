"""The three workloads: census, witness and conversion.

A workload makes its inputs from the workload seed and then runs rounds.
Every round makes the same calls into localsym, with inputs and seeds
derived from the workload seed and the round index, so a failure is
always the same share of what was attempted.  Program calls are timed
one by one; their outputs are checked after each round, untimed
(``Recorder.check``), with the dense oracles of ``checks``.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from localsym import cli, convert, genericity, io, stabilizer, states

import checks

POOL = 32         # conversion: rounds of input files written in set-up
RESTARTS = 32     # library default budget
TOL = 1e-8        # library default search tolerance
TRIALS = 10_000   # Monte Carlo trials per simulated protocol
ROOT = Path(__file__).resolve().parent.parent
SCHEMA = ROOT / "docs" / "report.schema.json"


def derive_seed(seed: int, *path: int) -> int:
    """A 31-bit seed for one call, from the workload seed and a path."""
    ss = np.random.SeedSequence([int(seed), *map(int, path)])
    return int(ss.generate_state(1)[0] & 0x7FFFFFFF)


def timed(call):
    """``call()`` and its wall time in seconds."""
    start = time.perf_counter()
    out = call()
    return out, time.perf_counter() - start


class Recorder:
    """Operations, failures and per-round timing samples of one run."""

    def __init__(self, calibrator=None):
        self.calibrator = calibrator  # None: report raw timings
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self._pending: list[tuple[str, object, object]] = []
        self._round: dict[str, list[float]] = defaultdict(list)
        # metric -> (round index, mean of the round's samples)
        self.rounds: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self.round_count = 0

    def op(self, label: str, call, check, keep=None):
        """Run one operation; its output is checked later by ``check``.

        ``keep`` runs untimed right after the call and turns its output
        into what ``check`` gets, e.g. by reading a report file that the
        next call would overwrite.  A calibrator sample may follow the
        call, outside its timing.
        """
        self.attempted += 1
        try:
            out, seconds = timed(call)
        except Exception as exc:  # a raising call is a failed operation
            self.failed += 1
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            return None, 0.0
        finally:
            if self.calibrator is not None:
                self.calibrator.maybe()
        self._pending.append((label, check, out if keep is None else keep(out)))
        return out, seconds

    def sample(self, metric: str, value: float) -> None:
        self._round[metric].append(value)

    def end_round(self) -> None:
        """One value per metric and round: the mean of the round's samples."""
        for metric, values in self._round.items():
            self.rounds[metric].append((self.round_count, sum(values) / len(values)))
        self._round.clear()
        self.round_count += 1

    def mean(self, metric: str, factors: list[float]) -> float:
        """Mean over rounds, each round's value scaled by its factor
        (a rate per second divided by it)."""
        rate = metric.endswith("_per_s")
        return statistics.fmean(v / factors[r] if rate else v * factors[r]
                                for r, v in self.rounds[metric])

    def check(self) -> None:
        """Run the deferred checks; a wrong output is a failed operation."""
        for label, check, out in self._pending:
            try:
                check(out)
            except Exception as exc:
                self.failed += 1
                self.correct = False
                self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
        self._pending.clear()


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_schema() -> dict:
    return read_json(SCHEMA)


def cli_report(path: Path):
    """``keep`` for a CLI call: its exit code and the report it wrote."""
    def keep(code):
        doc = read_json(path) if code == 0 else None
        path.unlink(missing_ok=True)
        return code, doc
    return keep


def _expect_exit_zero(code: int) -> None:
    checks.expect(code == 0, f"exit code {code}")


class Workload:
    """Hooks the runner calls; ``setup`` may run several times."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Make the inputs from the seed and write the input files."""

    def start(self) -> None:
        """Runs once, after setup and after the tracer is installed."""

    def finish(self, rec: Recorder) -> None:
        """Checks that need the outputs of the whole run."""


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

class Census(Workload):
    """Haar states at n = 5 and 6 through ``genericity_report``."""

    SIZES = (5, 6)

    def setup(self) -> None:
        self.schema = load_schema()

    def start(self) -> None:
        """Keep each verdict ``genericity_report`` computes, for the checks."""
        probe = genericity.gtilde_triviality_probe
        self.probes: list[tuple[object, float]] = []

        def tapped(*args, **kwargs):
            start = time.perf_counter()
            verdict = probe(*args, **kwargs)
            self.probes.append((verdict, time.perf_counter() - start))
            return verdict

        genericity.gtilde_triviality_probe = tapped

    def round(self, r: int, rec: Recorder) -> None:
        n5_seed, n6_seed = (derive_seed(self.seed, r, n) for n in self.SIZES)
        out = self.workdir / "genericity.json"
        calls = (
            (5, f"genericity_report n=5 seed={n5_seed}",
             lambda: genericity.genericity_report(5, 1, seed=n5_seed)),
            (6, f"localsym genericity n=6 seed={n6_seed}",
             lambda: cli.main(["genericity", "--n", "6", "--samples", "1",
                              "--seed", str(n6_seed), "--out", str(out)])),
        )
        done, census_s = 0, 0.0
        for n, label, call in calls:
            def census():
                self.probes.clear()
                result = call()
                return result, list(self.probes)

            keep = None
            if n == 6:
                report = cli_report(out)
                keep = lambda result: (report(result[0]), result[1])
            result, seconds = rec.op(label, census, self._checker(n), keep)
            if result is None or not result[1]:
                continue
            rec.sample("call_s", statistics.fmean(s for _, s in result[1]))
            done += 1
            census_s += seconds
            if n == 6:
                rec.sample("cli_ms", 1e3 * seconds)
        if census_s > 0:
            rec.sample("results_per_s", done / census_s)

    def _checker(self, n: int):
        def check(result):
            report, probes = result
            if n == 6:  # the CLI: exit code, then the report it wrote
                code, doc = report
                _expect_exit_zero(code)
                checks.check_report(doc, self.schema, "genericity")
                report = doc["payload"]
            else:
                report = {"fraction_gtilde_trivial": report.fraction_gtilde_trivial,
                          "records": [vars(rec) for rec in report.records]}
            checks.expect(len(probes) == len(report["records"]) == 1,
                          f"{len(probes)} probes for {len(report['records'])} records")
            checks.expect(report["fraction_gtilde_trivial"] == 1.0,
                          f"fraction trivial {report['fraction_gtilde_trivial']}")
            rec, verdict = report["records"][0], probes[0][0]
            checks.expect(verdict.verdict == rec["gtilde_verdict"],
                          "record and verdict disagree")
            rep = verdict.representative
            checks.check_census_sample(
                n, rec["gtilde_verdict"], rec["failed_gate"], rec["lie_dim"],
                rec["discrete_candidate_count"],
                None if rep is None else rep.amplitudes)
        return check


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

class Witness(Workload):
    """States with known symmetries, through the compact-group search.

    The states are fixed and the workload seed drives the search restarts.
    The four-qubit seed state is the one of ``benchmark_census``: over
    random gabcd coefficients the 32-restart search takes from under 1 s to
    over 30 s, so a run drawing its own states would be timed mostly by
    which states it drew.
    """

    def setup(self) -> None:
        self.gabcd = states.make_gabcd(1, 2 + 1j, 3, 0.5)
        self.l5 = states.make_ln(5)
        self.l7 = states.make_ln(7)
        self.l5_path = self.workdir / "l5.json"
        io.write_state(self.l5, self.l5_path)
        self.schema = load_schema()

    def round(self, r: int, rec: Recorder) -> None:
        psi = self.gabcd
        seeds = [derive_seed(self.seed, r, k) for k in range(1, 5)]
        search_s, found = 0.0, 0

        def gabcd_search():
            # the acceptance budget: 32 restarts, plus one 32-restart
            # top-up when a Pauli string is missing
            hits, seconds = timed(lambda: stabilizer.discrete_stabilizer_search(
                psi, restarts=RESTARTS, seed=seeds[0], tol=TOL))
            times = [seconds]
            try:
                checks.check_paulis_recovered([c.factors for c, _ in hits])
            except checks.Mismatch:
                more, seconds = timed(lambda: stabilizer.discrete_stabilizer_search(
                    psi, restarts=RESTARTS, seed=seeds[1], tol=TOL))
                hits = hits + more
                times.append(seconds)
            return hits, times

        out, _ = rec.op(f"gabcd search r={r}", gabcd_search,
                        self._gabcd_checker(psi))
        if out is not None:
            for seconds in out[1]:
                rec.sample("call_s", seconds)
                search_s += seconds
            found += len(out[0])

        for label, ln, seed in (("L5", self.l5, seeds[2]), ("L7", self.l7, seeds[3])):
            hits, seconds = rec.op(
                f"{label} phase search t=i seed={seed}",
                lambda: stabilizer.phase_stabilizer_search(
                    ln, 1j, restarts=RESTARTS, seed=seed, tol=TOL),
                self._phase_checker(ln))
            if hits is not None:
                rec.sample("call_s", seconds)
                search_s += seconds
                found += len(hits)
        if search_s > 0:
            rec.sample("results_per_s", found / search_s)

        report = self.workdir / "stab.json"
        stab_seed = derive_seed(self.seed, r, 5)
        code, seconds = rec.op(
            f"localsym stab seed={stab_seed}",
            lambda: cli.main(["stab", str(self.l5_path), "--seed", str(stab_seed),
                             "--out", str(report)]),
            self._check_stab, cli_report(report))
        if code is not None:
            rec.sample("cli_ms", 1e3 * seconds)

    @staticmethod
    def _gabcd_checker(psi):
        def check(out):
            hits, _ = out
            for chain, _ in hits:
                checks.check_witness(psi.amplitudes, chain.factors, 1.0, TOL)
            checks.check_paulis_recovered([c.factors for c, _ in hits])
        return check

    @staticmethod
    def _phase_checker(ln):
        def check(hits):
            for chain, _ in hits:
                checks.check_witness(ln.amplitudes, chain.factors, 1j, TOL)
            checks.check_analytic_hit(ln.n, 1j, [c.factors for c, _ in hits])
        return check

    def _check_stab(self, result) -> None:
        code, doc = result
        _expect_exit_zero(code)
        checks.check_report(doc, self.schema, "stab")
        payload = doc["payload"]
        checks.expect(payload["verdict"] == "non_trivial"
                      and payload["failed_gate"] == "phase_search",
                      f"L5 verdict {payload['verdict']} at {payload['failed_gate']}")
        checks.expect(payload["discrete_candidates"] == [],
                      "L5 has a plain (t = 1) witness")
        by_phase = defaultdict(list)
        for hit in payload["gtilde_phase_hits"]:
            t = complex(*hit["phase"])
            factors = checks.parse_factors(hit["chain"])
            checks.check_witness(self.l5.amplitudes, factors, t, TOL)
            by_phase[t].append(factors)
        checks.check_analytic_hit(5, 1j, by_phase[1j])


# ---------------------------------------------------------------------------
# conversion
# ---------------------------------------------------------------------------

class Conversion(Workload):
    """Haar states and random SL chains at n = 5..8: plans, scaling, files.

    Set-up writes the state and chain files of ``POOL`` rounds; later
    rounds reuse them with new simulation seeds.

    ``find_connector`` is left out: its 32-restart alignment misses the
    connector of some Haar pairs (it returns None), so a run's failure
    count would depend on the seed.
    """

    SIZES = (5, 6, 7, 8)

    def setup(self) -> None:
        self.pooled = [0, 0.0, 0.0]  # successes, expected, variance
        self.cases = []
        for r in range(POOL):
            row = []
            for n in self.SIZES:
                psi = states.sample_haar_state(n, derive_seed(self.seed, r, n, 0))
                g = states.sample_chain(n, "G", derive_seed(self.seed, r, n, 1))
                paths = (self.workdir / f"psi-{r}-{n}.json",
                         self.workdir / f"g-{r}-{n}.json")
                io.write_state(psi, paths[0])
                io.write_chain(g, paths[1])
                row.append((psi, g, paths))
            self.cases.append(row)
        factors = np.broadcast_to(np.eye(2, dtype=complex), (5, 2, 2)).copy()
        factors[0] = np.diag([2.0, 0.5])
        self.l5 = states.make_ln(5)
        self.l5_chain = states.LocalOperatorChain(factors, "G")
        self.schema = load_schema()

    def round(self, r: int, rec: Recorder) -> None:
        out = self.workdir / "report.json"
        plan_s = []
        for n, (psi, g, (psi_path, g_path)) in zip(self.SIZES, self.cases[r % POOL]):
            seed = derive_seed(self.seed, r, n, 2)
            plan_s.append(self._plan(rec, f"plan n={n}", psi, g, seed, TRIALS))
            for command, extra in (("pmax", [g_path, "--stabilizer", "trivial"]),
                                   ("protocol", [g_path, "--stabilizer", "trivial",
                                                 "--seed", seed + 1]),
                                   ("scale", [])):
                argv = [command, psi_path, *extra, "--out", out]
                code, seconds = rec.op(
                    f"localsym {command} n={n}",
                    lambda: cli.main([str(a) for a in argv]),
                    lambda result, command=command, psi=psi, g=g: self._check_cli(
                        result, command, psi, g),
                    cli_report(out))
                if code is not None:
                    rec.sample("cli_ms", 1e3 * seconds)
            rec.op(f"file round trip n={n}",
                   lambda: (io.read_state(psi_path), io.read_chain(g_path)),
                   lambda back, psi=psi, g=g: self._check_round_trip(psi, g, back))
        # the acceptance instance: p_max(L5, diag(2, 1/2) x I^4) = 17/32,
        # simulated at the fixed seed and trial count of the acceptance test
        plan_s.append(self._plan(rec, "plan L5", self.l5, self.l5_chain, 0,
                                 100_000, exact=17 / 32))
        if sum(plan_s) > 0:
            rec.sample("results_per_s", sum(s > 0 for s in plan_s) / sum(plan_s))

    def _plan(self, rec, label, psi, g, seed, trials, exact=None):
        def plan():
            p = convert.pmax(psi, g, trivial_stabilizer=True)
            full = convert.build_protocol(psi, g, trivial_stabilizer=True)
            stats = convert.simulate_protocol(full, psi, trials, seed)
            return p, full, stats

        out, seconds = rec.op(label, plan,
                              lambda out: self._check_plan(psi, g, out, exact))
        if out is not None:
            rec.sample("call_s", seconds)
        return seconds

    def _check_plan(self, psi, g, out, exact) -> None:
        p, full, stats = out
        reference = checks.dense_pmax(psi.amplitudes, g.factors, g.scalar)
        checks.check_close("pmax", p.p_max, reference, checks.ORACLE_REL_TOL)
        checks.check_close("build_protocol p_max", full.p_max, reference,
                           checks.ORACLE_REL_TOL)
        checks.check_measurements(full.measurements)
        if exact is None:
            self._frequency(stats.successes, stats.trials, reference)
            return
        checks.expect(abs(p.p_max - exact) <= 1e-12,
                      f"p_max {p.p_max!r}, expected {exact!r}")
        # one fixed simulation, the same in every round: 4 sigma alone
        checks.check_frequency(stats.successes, stats.trials, reference, 4.0)

    def _frequency(self, successes: int, trials: int, p: float) -> None:
        # each seeded simulation passes a Chernoff tail test at 1e-9 (a
        # run makes over a thousand, so a per-simulation 4 sigma would fail
        # by chance); their pooled frequency, a sum of independent draws,
        # is held to 4 sigma in ``finish``
        checks.check_frequency_tail(successes, trials, p, 1e-9)
        self.pooled[0] += successes
        self.pooled[1] += trials * p
        self.pooled[2] += trials * p * (1.0 - p)

    def _check_cli(self, result, command, psi, g) -> None:
        code, doc = result
        _expect_exit_zero(code)
        checks.check_report(doc, self.schema, command)
        payload = doc["payload"]
        if command == "scale":
            checks.expect(payload["status"] == "converged", f"scaling {payload['status']}")
            checks.check_scaling(psi.amplitudes, psi.n,
                                 checks.parse_factors(payload["accumulated_chain"]),
                                 complex(*payload["scalar"]),
                                 checks.parse_amplitudes(payload["representative"]),
                                 payload["norm_trajectory"])
            return
        reference = checks.dense_pmax(psi.amplitudes, g.factors, g.scalar)
        checks.check_close(f"{command} p_max", payload["p_max"], reference,
                           checks.ORACLE_REL_TOL)
        if command == "protocol":
            checks.check_measurements([(checks.parse_matrix(m["N0"]),
                                        checks.parse_matrix(m["N1"]))
                                       for m in payload["measurements"]])
            sim = payload["simulation"]
            self._frequency(sim["successes"], sim["trials"], reference)

    @staticmethod
    def _check_round_trip(psi, g, back) -> None:
        psi_back, g_back = back
        checks.check_bit_exact("state file", psi.amplitudes, psi_back.amplitudes)
        checks.check_bit_exact("chain file", g.factors, g_back.factors)
        checks.check_bit_exact("chain scalar", g.scalar, g_back.scalar)
        checks.expect(g.group_tag == g_back.group_tag, "chain group tag")

    def finish(self, rec: Recorder) -> None:
        successes, expected, variance = self.pooled
        if variance > 0:
            z = (successes - expected) / np.sqrt(variance)
            if abs(z) > 4.0:
                rec.correct = False
                rec.problems.append(f"pooled protocol frequency {z:+.2f} sigma off")


WORKLOADS = {"census": Census, "witness": Witness, "conversion": Conversion}
