import math

import numpy as np
import pytest

from geopriv.accounting import (
    BudgetError,
    BudgetLedger,
    CgpBudget,
    GpBudget,
    RelaxedGpBudget,
    cgp_to_relaxed_gp,
    compose_cgp,
    compose_gp,
    gp_to_cgp,
    matched_gp_budget,
)


class TestConversions:
    def test_gp_to_cgp(self):
        assert gp_to_cgp(1.0).rho == 0.5
        assert gp_to_cgp(0.0).rho == 0.0

    def test_gp_to_cgp_round_trip(self):
        rho = 0.37
        assert gp_to_cgp(math.sqrt(2 * rho)).rho == pytest.approx(rho, rel=1e-12)

    def test_cgp_to_relaxed_gp_reference_point(self):
        out = cgp_to_relaxed_gp(0.01, 1e-10, 10.0)
        expected = 0.1 + 2 * math.sqrt(0.01 * math.log(1e10))
        assert out.eps == pytest.approx(expected, rel=1e-12)
        assert out.eps == pytest.approx(1.0597051824376162, rel=1e-12)

    def test_cgp_to_relaxed_gp_zero_rho(self):
        assert cgp_to_relaxed_gp(0.0, 0.5, 1.0).eps == 0.0

    def test_cgp_to_relaxed_gp_small_cap_limit(self):
        rho, delta = 0.2, 1e-6
        out = cgp_to_relaxed_gp(rho, delta, 1e-12)
        assert out.eps == pytest.approx(2 * math.sqrt(rho * math.log(1 / delta)), rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gp_to_cgp(-1.0)
        with pytest.raises(ValueError):
            cgp_to_relaxed_gp(0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            cgp_to_relaxed_gp(0.1, 0.5, 0.0)

    def test_lossy_round_trip_is_sqrt2(self):
        # eps-GP -> CGP -> relaxed GP with vanishing cap and delta = e^{-1}
        eps = 0.8
        rho = gp_to_cgp(eps).rho
        out = cgp_to_relaxed_gp(rho, math.exp(-1.0), 1e-13)
        assert out.eps == pytest.approx(math.sqrt(2) * eps, rel=1e-9)


class TestMatchedBudget:
    def test_reference_point(self):
        eps = matched_gp_budget(0.01, 1e-10, 10.0)
        tail = 0.01 * math.log(1e10)
        assert eps == pytest.approx(math.sqrt(0.1 + tail) + math.sqrt(tail), rel=1e-12)
        assert eps == pytest.approx(1.0546, abs=1e-4)

    def test_self_consistency(self):
        # the matched eps solves eps = rho * (c / eps) + 2 sqrt(rho log(1/delta))
        rho, delta, c = 0.003, 1e-10, 10.0
        eps = matched_gp_budget(rho, delta, c)
        assert eps == pytest.approx(rho * (c / eps) + 2 * math.sqrt(rho * math.log(1 / delta)), rel=1e-12)
        assert eps * (c / eps) == pytest.approx(c, rel=1e-12)

    def test_monotone_in_rho(self):
        grid = [matched_gp_budget(r, 1e-10, 10.0) for r in np.geomspace(1e-6, 1.0, 25)]
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            matched_gp_budget(0.0, 1e-10)
        with pytest.raises(ValueError):
            matched_gp_budget(0.1, 2.0)


class TestComposition:
    def test_compose_cgp_values(self):
        assert compose_cgp([CgpBudget(0.1), CgpBudget(0.2)]).rho == pytest.approx(0.3, rel=1e-12)
        assert compose_cgp([CgpBudget(0.5), CgpBudget(0.0)]).rho == 0.5

    def test_compose_cgp_equal_shares(self):
        k, rho = 7, 0.42
        assert compose_cgp([CgpBudget(rho / k)] * k).rho == pytest.approx(rho, rel=1e-12)

    def test_compose_cgp_associative_commutative(self):
        gen = np.random.default_rng(0)
        for _ in range(50):
            vals = gen.random(5)
            budgets = [CgpBudget(v) for v in vals]
            forward = compose_cgp(budgets).rho
            shuffled = list(budgets)
            gen.shuffle(shuffled)
            assert compose_cgp(shuffled).rho == pytest.approx(forward, rel=1e-12)
            nested = compose_cgp([compose_cgp(budgets[:2]), compose_cgp(budgets[2:])])
            assert nested.rho == pytest.approx(forward, rel=1e-12)

    def test_compose_gp_values(self):
        out = compose_gp([GpBudget(1.0), GpBudget(2.0)])
        assert (out.eps, out.delta) == (3.0, 0.0)
        out = compose_gp([GpBudget(0.5, 1e-10), GpBudget(0.5, 1e-10)])
        assert out.eps == pytest.approx(1.0, rel=1e-12)
        assert out.delta == pytest.approx(2e-10, rel=1e-12)

    def test_compose_gp_equal_shares(self):
        n, eps = 10, 1.0
        assert compose_gp([GpBudget(eps / n)] * n).eps == pytest.approx(eps, rel=1e-12)

    def test_compose_gp_vacuous_delta_warns(self):
        with pytest.warns(UserWarning, match="vacuous"):
            compose_gp([GpBudget(0.5, 0.6), GpBudget(0.5, 0.6)])

    def test_compose_empty_rejected(self):
        with pytest.raises(ValueError):
            compose_cgp([])
        with pytest.raises(ValueError):
            compose_gp([])


class TestBudgetTypes:
    def test_validation(self):
        with pytest.raises(ValueError):
            GpBudget(-1.0)
        with pytest.raises(ValueError):
            GpBudget(1.0, -0.1)
        with pytest.raises(ValueError):
            CgpBudget(-0.1)


NON_FINITE = [math.nan, math.inf]


class TestNonFinite:
    @pytest.mark.parametrize("v", NON_FINITE)
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: GpBudget(v),
            lambda v: GpBudget(1.0, v),
            lambda v: CgpBudget(v),
            lambda v: RelaxedGpBudget(v, 0.0, 1.0),
            lambda v: RelaxedGpBudget(1.0, v, 1.0),
            lambda v: RelaxedGpBudget(1.0, 0.0, v),
            lambda v: gp_to_cgp(v),
            lambda v: cgp_to_relaxed_gp(v, 1e-10, 10.0),
            lambda v: cgp_to_relaxed_gp(0.1, v, 10.0),
            lambda v: cgp_to_relaxed_gp(0.1, 1e-10, v),
            lambda v: matched_gp_budget(v, 1e-10),
            lambda v: matched_gp_budget(0.1, v),
            lambda v: matched_gp_budget(0.1, 1e-10, v),
            lambda v: compose_cgp([CgpBudget(0.1), CgpBudget(v)]),
        ],
    )
    def test_budgets_and_conversions_refuse(self, make, v):
        with pytest.raises(ValueError):
            make(v)

    def test_a_conversion_that_overflows_is_refused(self):
        with pytest.raises(ValueError):
            gp_to_cgp(1e200)
        with pytest.raises(ValueError):
            cgp_to_relaxed_gp(1e308, 1e-10, 10.0)
        with pytest.raises(ValueError, match="overflows"):
            matched_gp_budget(1e307, 1e-10)

    @pytest.mark.parametrize("v", [*NON_FINITE, -math.inf])
    def test_a_ledger_refuses_a_non_finite_charge_and_stays_usable(self, v):
        ledger = BudgetLedger(GpBudget(1.0))
        with pytest.raises(BudgetError, match="nonnegative and finite"):
            ledger.charge("x", v)
        with pytest.raises(BudgetError, match="overspends"):
            ledger.charge("y", 5.0)
        ledger.charge("z", 1.0)
        ledger.close()
        assert ledger.entries == [("z", 1.0)]


class TestLedger:
    def test_charges_close_to_declared(self):
        ledger = BudgetLedger(CgpBudget(1.0))
        ledger.charge("a", 0.25)
        ledger.charge("b", 0.75)
        ledger.close()
        assert ledger.entries == [("a", 0.25), ("b", 0.75)]

    def test_float_drift_within_tolerance(self):
        rho = 0.05
        ledger = BudgetLedger(CgpBudget(rho))
        ledger.charge("two_thirds", 2 * rho / 3)
        ledger.charge("one_third", rho / 3)
        ledger.close()

    def test_overspend_rejected(self):
        ledger = BudgetLedger(GpBudget(1.0))
        ledger.charge("a", 0.9)
        with pytest.raises(BudgetError):
            ledger.charge("b", 0.2)

    def test_unclosed_total_rejected(self):
        ledger = BudgetLedger(CgpBudget(1.0))
        ledger.charge("a", 0.5)
        with pytest.raises(BudgetError):
            ledger.close()

    def test_negative_charge_rejected(self):
        ledger = BudgetLedger(CgpBudget(1.0))
        with pytest.raises(BudgetError):
            ledger.charge("a", -0.1)
