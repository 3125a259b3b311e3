"""The self-verification suites, including corrupted catalog data as a
negative control."""

from ellgenus import (
    FAMILIES,
    BundleSpec,
    FibrationSpec,
    Poly,
    RootForm,
    WSeries,
    fibrations,
    verify,
)
from ellgenus.verify import (
    SUITES,
    check_d5_derivative_oracle,
    check_derived_vs_closed,
    check_euler_e8,
    check_hadamard_identity,
    check_integrality,
    check_p_table,
    check_route_consistency,
    check_serre_duality,
    first_mismatch,
    run_suites,
)
from helpers import count_calls


def test_suite_smoke_one_family():
    ok, results = run_suites("D5", wmax=2, qmax=3)
    assert ok
    assert len(results) == len(SUITES) == 8
    assert [name for name, _f in results] == [name for name, _d in SUITES]


def test_individual_suites_pass_quickly():
    assert check_derived_vs_closed(("E8",), 3, 3) == []
    assert check_p_table(("E6",), nmax=3) == []
    assert check_d5_derivative_oracle(4, 3, nrandom=3) == []
    assert check_hadamard_identity(max_abs_root=2, max_d=2, order=4) == []
    assert check_euler_e8(dmax=2) == []
    assert check_serre_duality(("E6",), max_dim=2) == []
    assert check_integrality(("E7",), max_dim=2) == []
    assert check_route_consistency(("D5",), max_dim=2) == []


def test_route_consistency_builds_one_pushed_class_per_family_and_dim(monkeypatch):
    builds = count_calls(monkeypatch, fibrations, "hirzebruch_class")
    assert check_route_consistency(FAMILIES, 4) == []
    assert len(builds) == 20
    assert sorted(set(builds)) == [(d, d + 2) for d in range(0, 5)]


def test_p_table_expands_each_family_once(monkeypatch):
    calls = count_calls(monkeypatch, verify, "p_polynomials")
    assert check_p_table(nmax=12) == []
    assert calls == [(fam, 12) for fam in FAMILIES]


def test_corrupted_root_is_caught_with_counterexample():
    bad = FibrationSpec(
        name="D5",
        bundle=BundleSpec((0, 1, 1, 1)),
        n_roots=(RootForm(2, 2), RootForm(2, 3)),  # second root perturbed
    )
    failures = check_derived_vs_closed(("D5",), 3, 3, specs={"D5": bad})
    assert len(failures) == 1
    assert "first mismatch at weight 1, y^0" in failures[0]


def test_first_mismatch_reports_lowest_block():
    from ellgenus import WSeries

    a = WSeries.var("L", 3, 2)
    b = WSeries.var("L", 3, 2) + WSeries.var("L", 3, 2) ** 2
    k, q, ca, cb = first_mismatch(a, b)
    assert (k, q) == (2, 0)
    assert ca.is_zero() and not cb.is_zero()
    assert first_mismatch(a, a) is None


def test_hadamard_suite_catches_corrupted_power_sums(monkeypatch):
    real = verify.power_sums_from_chern

    def corrupted(kmax, qmax=0, cmax=None):
        p = real(kmax, qmax, cmax)
        p[2] = p[2] + WSeries.var("c3", kmax, qmax)  # p_3 + c3
        return p

    monkeypatch.setattr(verify, "power_sums_from_chern", corrupted)
    failures = check_hadamard_identity(max_abs_root=1, max_d=3, order=4)
    assert "roots (1, 1, 1): p_3 gives 4, sum of l^3 is 3" in failures
    assert all(": p_3 gives" in line for line in failures)


def test_hadamard_suite_catches_corrupted_hadamard_apply(monkeypatch):
    real = verify.hadamard_apply

    def corrupted(coeffs, series):
        coeffs = list(coeffs)
        coeffs[1] = coeffs[1] + Poly.x()  # b_2 + y
        return real(coeffs, series)

    monkeypatch.setattr(verify, "hadamard_apply", corrupted)
    failures = check_hadamard_identity(max_abs_root=1, max_d=2, order=4)
    assert any(line.startswith("roots (1,), weight 2: ") for line in failures)
    assert all("weight 2: hadamard_apply" in line for line in failures)
