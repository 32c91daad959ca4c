"""The product's tables: each table's columns, and its rows built from the
calibration results of the scenarios run, `{scenario: CalibrationResult}`.

table2 holds each scenario's OT winner, table4 its stylized facts. The
Pareto x chartist synergy check and the fig5 chartist-intensity sweep
read the quartet 0, 1, 2 and 4 and simulate nothing. A cell that is None
is written empty.
"""

from __future__ import annotations

import numpy as np

from .calibration import CalibrationResult
from .config import ParameterGrid
from .metrics import ABS_AUTOCORR_LAGS, theoretical_hill

QUARTET = (0, 1, 2, 4)  # no component, Pareto cash, chartists, both

TABLE2_COLUMNS = ("scenario", "cash_kind", "lambda_c", "lambda_m", "nu", "alpha",
                  "hill", "k_used", "mean_ot", "ot_std", "n_trials", "n_degenerate",
                  "n_pooled")
TABLE4_COLUMNS = ("scenario", "kurtosis", "vol_volume_corr",
                  *(f"abs_autocorr_{lag}" for lag in ABS_AUTOCORR_LAGS))
SYNERGY_COLUMNS = ("observed_hill_4", "theoretical_hill_4", "observed_lower")
FIG5_COLUMNS = ("lambda_c", "series", "hill_mean", "hill_std", "n_points")


def table2_rows(results: dict[int, CalibrationResult]) -> list[tuple]:
    """Each scenario's winning combo and its scores."""
    rows = []
    for n, result in results.items():
        best = result.best
        c = best.combo
        rows.append((n, c.cash_kind, c.lambda_c, c.lambda_m, c.nu, c.alpha, best.hill,
                     best.k_used, best.mean_ot, best.ot_std, best.n_trials,
                     best.n_degenerate, best.n_pooled))
    return rows


def table4_rows(results: dict[int, CalibrationResult]) -> list[tuple]:
    """Each winner's stylized facts: all None where undefined, and a lag's
    autocorrelation None where the report lacks it."""
    rows = []
    for n, result in results.items():
        facts = result.best.stylized
        cells = (None,) * (len(TABLE4_COLUMNS) - 1) if facts is None else (
            facts.kurtosis, facts.vol_volume_corr,
            *(facts.abs_autocorr.get(lag) for lag in ABS_AUTOCORR_LAGS))
        rows.append((n, *cells))
    return rows


def synergy_rows(results: dict[int, CalibrationResult]) -> list[tuple]:
    """Does the combined scenario 4 sit below the additive prediction?"""
    hills = {n: results[n].best.hill for n in QUARTET}
    theoretical = theoretical_hill(hills[0], hills[1], hills[2])
    return [(hills[4], theoretical, hills[4] < theoretical)]


def sweep_lambda_c(grid: ParameterGrid, results: dict[int, CalibrationResult]) -> list[tuple]:
    """Hill index versus chartist intensity for the chartist scenarios: fig5's rows.

    Aggregates the per-combo results of calibrating scenarios 0, 1, 2 and 4
    and simulates nothing. For each nonzero lambda_c: Hill per alpha for
    scenario 2 (uniform cash) and scenario 4 (Pareto cash), plus the
    additive prediction built per alpha from scenarios 0, 1, 2; each series
    reported as mean and std across the alpha grid. Unstable combos drop out
    of the aggregation.
    """
    # these scenarios pin lambda_m and nu to 0, so cash kind, lambda_c and
    # alpha pick out a combo; its Hill index is None when unstable
    hill_of = {(m.combo.cash_kind, m.combo.lambda_c, m.combo.alpha): m.hill
               for n in QUARTET for m in results[n].per_combo}

    def hills(cash_kind: str, lambda_c: float) -> dict[float, float | None]:
        return {a: hill_of[cash_kind, lambda_c, a] for a in grid.alpha}

    z0 = hills("uniform", 0.0)
    z1 = hills("pareto", 0.0)
    rows = []
    for lc in [v for v in grid.lambda_c if v > 0]:
        z2 = hills("uniform", lc)
        z4 = hills("pareto", lc)
        theo = [
            theoretical_hill(z0[a], z1[a], z2[a])
            for a in grid.alpha
            if None not in (z0[a], z1[a], z2[a])
        ]
        for series, values in (
            ("sim2", [v for v in z2.values() if v is not None]),
            ("sim4", [v for v in z4.values() if v is not None]),
            ("theoretical", theo),
        ):
            rows.append((lc, series, float(np.mean(values)) if values else None,
                         float(np.std(values)) if values else None, len(values)))
    return rows
