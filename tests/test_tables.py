"""The product's tables as rows: table2, table4, synergy and the fig5 sweep,
each built from fake calibration results."""

import pytest

from lobfactor.calibration import (
    CalibrationResult,
    Combo,
    ComboMetrics,
    enumerate_combos,
)
from lobfactor.config import CashSpec, ParameterGrid
from lobfactor.metrics import StylizedFactReport
from lobfactor.tables import (
    FIG5_COLUMNS,
    TABLE2_COLUMNS,
    TABLE4_COLUMNS,
    sweep_lambda_c,
    synergy_rows,
    table2_rows,
    table4_rows,
)

FULL_FACTS = StylizedFactReport(kurtosis=5.5, vol_volume_corr=0.25,
                                abs_autocorr={1: 0.3, 10: 0.2, 20: 0.1, 30: 0.05})


def fake_metrics(combo: Combo, mean_ot: float, hill: float, unstable: bool = False,
                 stylized: StylizedFactReport | None = FULL_FACTS) -> ComboMetrics:
    return ComboMetrics(combo=combo, hill=None if unstable else hill, k_used=10,
                        mean_ot=None if unstable else mean_ot, ot_std=0.0, n_trials=2,
                        n_degenerate=0, n_pooled=100, unstable=unstable,
                        stylized=None if unstable else stylized)


def winners(hills: dict[int, float], stylized=FULL_FACTS) -> dict[int, CalibrationResult]:
    """One result per scenario, its winner the scenario's first combo at `hills[n]`."""
    results = {}
    for n, hill in hills.items():
        combo = enumerate_combos(n, ParameterGrid(), CashSpec())[0]
        best = fake_metrics(combo, mean_ot=0.5 + n, hill=hill, stylized=stylized)
        results[n] = CalibrationResult(best=best, per_combo=[best])
    return results


class TestTable2:
    def test_one_row_per_scenario_in_the_order_run(self):
        results = winners({2: 2.5, 0: 3.0})
        rows = table2_rows(results)
        assert rows == [
            (2, "uniform", 1.5, 0.0, 0.0, 0.05, 2.5, 10, 2.5, 0.0, 2, 0, 100),
            (0, "uniform", 0.0, 0.0, 0.0, 0.05, 3.0, 10, 0.5, 0.0, 2, 0, 100),
        ]
        assert all(len(row) == len(TABLE2_COLUMNS) for row in rows)

    def test_pareto_winner_names_its_cash_kind(self):
        ((_, cash_kind, *_),) = table2_rows(winners({1: 3.2}))
        assert cash_kind == "pareto"


class TestTable4:
    def test_columns_name_each_lag(self):
        assert TABLE4_COLUMNS == ("scenario", "kurtosis", "vol_volume_corr", "abs_autocorr_1",
                                  "abs_autocorr_10", "abs_autocorr_20", "abs_autocorr_30")

    def test_full_report_fills_every_cell(self):
        assert table4_rows(winners({0: 3.0})) == [(0, 5.5, 0.25, 0.3, 0.2, 0.1, 0.05)]

    def test_winner_without_facts_gives_six_empty_cells(self):
        assert table4_rows(winners({3: 3.0}, stylized=None)) == [(3, *(None,) * 6)]

    def test_missing_lag_gives_one_empty_cell(self):
        facts = StylizedFactReport(kurtosis=1.0, vol_volume_corr=None,
                                   abs_autocorr={1: 0.3, 10: 0.2, 20: 0.1})
        assert table4_rows(winners({5: 3.0}, stylized=facts)) == [
            (5, 1.0, None, 0.3, 0.2, 0.1, None)]


class TestSynergy:
    @pytest.mark.parametrize("hill_4, lower", [(2.8, True), (3.0, False)])
    def test_observed_against_additive_prediction(self, hill_4, lower):
        results = winners({0: 4.0, 1: 3.8, 2: 3.1, 4: hill_4})
        ((observed, theoretical, observed_lower),) = synergy_rows(results)
        assert observed == hill_4
        assert theoretical == pytest.approx(3.8 + 3.1 - 4.0)
        assert observed_lower is lower


def quartet_results(grid: ParameterGrid, score) -> dict[int, CalibrationResult]:
    """Results of scenarios 0, 1, 2 and 4, each combo scored by ``score``."""
    results = {}
    for n in (0, 1, 2, 4):
        per_combo = [score(combo) for combo in enumerate_combos(n, grid, CashSpec())]
        results[n] = CalibrationResult(best=per_combo[0], per_combo=per_combo)
    return results


class TestSweepLambdaC:
    @staticmethod
    def _hill_falls_with_lambda_c(combo):
        # hill falls with lambda_c, offset by cash kind and alpha
        base = 4.0 - 0.4 * combo.lambda_c - (0.5 if combo.cash_kind == "pareto" else 0.0)
        return fake_metrics(combo, mean_ot=1.0, hill=base + combo.alpha)

    @staticmethod
    def by_key(rows) -> dict[tuple, dict]:
        return {(r[0], r[1]): dict(zip(FIG5_COLUMNS, r)) for r in rows}

    def test_row_structure_and_values(self):
        grid = ParameterGrid(lambda_c=(0.0, 1.5, 2.5), alpha=(0.1, 0.3))
        rows = sweep_lambda_c(grid, quartet_results(grid, self._hill_falls_with_lambda_c))
        assert all(type(r) is tuple and len(r) == len(FIG5_COLUMNS) for r in rows)
        assert [(r[0], r[1]) for r in rows] == [
            (1.5, "sim2"), (1.5, "sim4"), (1.5, "theoretical"),
            (2.5, "sim2"), (2.5, "sim4"), (2.5, "theoretical"),
        ]
        by = self.by_key(rows)
        # sim2 at lc: mean over alpha of 4.0 - 0.4*lc + alpha
        assert by[(1.5, "sim2")]["hill_mean"] == pytest.approx(4.0 - 0.6 + 0.2)
        assert by[(2.5, "sim4")]["hill_mean"] == pytest.approx(4.0 - 1.0 - 0.5 + 0.2)
        # theoretical: z1 + z2 - z0 = (3.5+a) + (4-0.4lc+a) - (4+a) = 3.5 - 0.4lc + a
        assert by[(2.5, "theoretical")]["hill_mean"] == pytest.approx(3.5 - 1.0 + 0.2)
        assert all(r["n_points"] == 2 for r in by.values())

    def test_unstable_points_drop_from_aggregate(self):
        def score(combo):
            if combo.cash_kind == "uniform" and combo.lambda_c > 0 and combo.alpha == 0.1:
                return fake_metrics(combo, 0.0, 0.0, unstable=True)
            return fake_metrics(combo, mean_ot=1.0, hill=3.0)

        grid = ParameterGrid(lambda_c=(0.0, 2.0), alpha=(0.1, 0.3))
        rows = sweep_lambda_c(grid, quartet_results(grid, score))
        by = self.by_key(rows)
        assert by[(2.0, "sim2")]["n_points"] == 1
        assert by[(2.0, "theoretical")]["n_points"] == 1
        assert by[(2.0, "sim4")]["n_points"] == 2

    def test_rows_are_whole_tuples(self):
        grid = ParameterGrid(lambda_c=(0.0, 2.0), alpha=(0.1,))
        rows = sweep_lambda_c(grid, quartet_results(grid, lambda c: fake_metrics(c, 1.0, 3.0)))
        assert rows == [(2.0, "sim2", 3.0, 0.0, 1), (2.0, "sim4", 3.0, 0.0, 1),
                        (2.0, "theoretical", 3.0, 0.0, 1)]
