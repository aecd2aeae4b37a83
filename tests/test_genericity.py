import pytest

from localsym import SearchBudget, genericity_report, benchmark_census
from localsym import critical, genericity, stabilizer


def test_report_reproducible():
    budget = SearchBudget(restarts=4)
    a = genericity_report(4, 3, seed=1, budget=budget)
    b = genericity_report(4, 3, seed=1, budget=budget)
    assert [(r.lie_dim, r.gtilde_verdict, r.discrete_candidate_count)
            for r in a.records] == \
           [(r.lie_dim, r.gtilde_verdict, r.discrete_candidate_count)
            for r in b.records]


def test_report_small_n5():
    report = genericity_report(5, 4, seed=0, budget=SearchBudget(restarts=8))
    assert report.samples == 4
    assert len(report.records) == 4
    assert report.fraction_lie_trivial == 1.0
    assert report.fraction_gtilde_trivial == 1.0
    for r in report.records:
        assert r.lie_dim == 0
        assert r.smallest_singular_value > 0
        assert r.gtilde_verdict == "trivial"


def test_report_n3_never_lie_trivial():
    report = genericity_report(3, 5, seed=0, budget=SearchBudget(restarts=2))
    assert report.fraction_lie_trivial == 0.0
    for r in report.records:
        assert r.gtilde_verdict != "trivial"


def test_report_input_validation():
    with pytest.raises(ValueError):
        genericity_report(1, 5)
    with pytest.raises(ValueError):
        genericity_report(4, 0)


def test_benchmark_census_rows():
    rows = benchmark_census(seed=0, budget=SearchBudget(restarts=4))
    by_name = {r["state"]: r for r in rows}
    assert by_name["Bell"]["lie_dim"] == 3
    assert by_name["GHZ3"]["lie_dim"] == 2
    assert by_name["W3"]["lie_dim"] == 2
    assert not by_name["W3"]["is_critical"]
    assert by_name["GHZ4"]["gtilde_verdict"] == "non_trivial"
    assert by_name["L5"]["lie_dim"] == 0
    assert by_name["L5"]["is_critical"]
    assert by_name["L5"]["gtilde_verdict"] == "non_trivial"
    assert by_name["L5"]["failed_gate"] == "phase_search"
    assert by_name["L6"]["gtilde_verdict"] == "inconclusive"
    assert by_name["Psi(1, 2+1j, 3, 0.5)"]["gtilde_verdict"] == "non_trivial"


def test_benchmark_census_checks_criticality_once_per_state(monkeypatch):
    """The row's criticality report also decides the Lie probe's precondition."""
    calls = []
    for module in (critical, genericity, stabilizer):
        monkeypatch.setattr(module, "criticality_report",
                            lambda *a, f=module.criticality_report, **kw:
                            calls.append(1) or f(*a, **kw))
    rows = benchmark_census(seed=0, budget=SearchBudget(restarts=1))
    assert len(calls) == len(rows) == 10
