"""Calendar-time resampling against hand enumerations and prefix-sum oracles."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobfactor.cli import (
    BARS_CSV_HEADER,
    DEFAULT_CONFIG,
    DataError,
    load_paths,
    read_bar_price_rows,
    write_bars_csv,
)
from lobfactor.orderbook import Trade
from lobfactor.timegrid import (
    MINUTES_PER_DAY,
    BarSeries,
    DegenerateDayError,
    DegenerateTrialError,
    TransactionPath,
    assign_calendar_time,
    bar_indices,
    bar_volumes,
    log_returns,
    scaled_path_from_counts,
    synthetic_reference_path,
)
from oracles import bar_volumes_loop


class FakeSim:
    """Just the fields assign_calendar_time reads."""

    def __init__(self, trades, mid_prices):
        self.trades = trades
        self.mid_prices = mid_prices


def make_sim(n_trades: int, first_step: int = 101):
    """n_trades trades at consecutive steps; mid after the k-th trade's step is 300+k."""
    trades = [
        Trade(buy_order_id=2 * k, sell_order_id=2 * k + 1, price=300.0 + k, volume=k, step=first_step + k - 1)
        for k in range(1, n_trades + 1)
    ]
    last_step = first_step + n_trades - 1
    mids = [300.0] * last_step
    for k in range(1, n_trades + 1):
        mids[first_step + k - 2] = 300.0 + k
    return FakeSim(trades, mids)


def pad_fractions(head, fill=1.0):
    return tuple(list(head) + [fill] * (MINUTES_PER_DAY - len(head)))


class TestScaledPath:
    def test_uniform_counts_linear_path(self):
        path = scaled_path_from_counts([1] * MINUTES_PER_DAY)
        expected = [(m + 1) / MINUTES_PER_DAY for m in range(MINUTES_PER_DAY)]
        assert path.fractions == pytest.approx(expected)
        assert path.fractions[-1] == 1.0

    def test_all_in_first_minute_step_function(self):
        counts = [7] + [0] * (MINUTES_PER_DAY - 1)
        path = scaled_path_from_counts(counts)
        assert path.fractions == tuple([1.0] * MINUTES_PER_DAY)

    def test_zero_day_rejected(self):
        with pytest.raises(DegenerateDayError):
            scaled_path_from_counts([0] * MINUTES_PER_DAY)

    def test_negative_count_rejected(self):
        counts = [1] * MINUTES_PER_DAY
        counts[5] = -1
        with pytest.raises(ValueError):
            scaled_path_from_counts(counts)

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=MINUTES_PER_DAY, max_size=MINUTES_PER_DAY)
           .filter(lambda c: sum(c) > 0))
    @settings(max_examples=50, deadline=None)
    def test_matches_prefix_sum_oracle(self, counts):
        path = scaled_path_from_counts(counts)
        total = sum(counts)
        acc = 0
        for m, c in enumerate(counts):
            acc += c
            assert path.fractions[m] == pytest.approx(acc / total, abs=1e-12)

    def test_path_validation_rejects_decreasing(self):
        fr = list(pad_fractions([0.5, 0.4]))
        with pytest.raises(ValueError):
            TransactionPath(tuple(fr))

    def test_path_validation_requires_final_one(self):
        with pytest.raises(ValueError):
            TransactionPath(tuple([0.5] * MINUTES_PER_DAY))


class TestAssignCalendarTime:
    def test_half_up_rounding_of_trade_indices(self):
        path = TransactionPath(pad_fractions([0.0, 0.049, 0.05, 0.1, 0.25, 0.3]))
        assert bar_indices(path, 10)[:6] == [0, 0, 1, 1, 3, 3]
        assert bar_indices(path, 10)[-1] == 10

    def test_ten_trade_hand_enumeration(self):
        sim = make_sim(10)
        path = TransactionPath(pad_fractions([0.0, 0.049, 0.05, 0.1, 0.25, 0.3]))
        bars = assign_calendar_time(sim, path, p0=300.0)
        assert bars.mid_prices[:6] == (300.0, 300.0, 301.0, 301.0, 303.0, 303.0)
        assert set(bars.mid_prices[6:]) == {310.0}

    def test_leading_zero_fractions_take_p0(self):
        sim = make_sim(4)
        path = TransactionPath(pad_fractions([0.0, 0.0, 0.1]))  # 0.1*4 = 0.4 -> 0
        bars = assign_calendar_time(sim, path, p0=123.0)
        assert bars.mid_prices[0] == 123.0
        assert bars.mid_prices[1] == 123.0
        assert bars.mid_prices[2] == 123.0

    @pytest.mark.parametrize("resample", [
        lambda sim, path: assign_calendar_time(sim, path, p0=300.0),
        bar_volumes,
    ], ids=["assign_calendar_time", "bar_volumes"])
    def test_no_trades_rejected(self, resample):
        sim = FakeSim([], [300.0])
        path = scaled_path_from_counts([1] * MINUTES_PER_DAY)
        with pytest.raises(DegenerateTrialError):
            resample(sim, path)

    @given(st.integers(min_value=1, max_value=40), st.data())
    @settings(max_examples=40, deadline=None)
    def test_bars_are_recorded_mids_or_p0(self, n_trades, data):
        counts = data.draw(
            st.lists(st.integers(min_value=0, max_value=5), min_size=MINUTES_PER_DAY,
                     max_size=MINUTES_PER_DAY).filter(lambda c: sum(c) > 0))
        sim = make_sim(n_trades)
        path = scaled_path_from_counts(counts)
        bars = assign_calendar_time(sim, path, p0=300.0)
        allowed = set(sim.mid_prices) | {300.0}
        assert set(bars.mid_prices) <= allowed

    @given(st.integers(min_value=1, max_value=40), st.data())
    @settings(max_examples=40, deadline=None)
    def test_resampled_count_path_tracks_input(self, n_trades, data):
        counts = data.draw(
            st.lists(st.integers(min_value=0, max_value=5), min_size=MINUTES_PER_DAY,
                     max_size=MINUTES_PER_DAY).filter(lambda c: sum(c) > 0))
        path = scaled_path_from_counts(counts)
        idx = bar_indices(path, n_trades)
        for i, f in zip(idx, path.fractions):
            assert abs(i / n_trades - f) < 1.0 / n_trades
        assert idx == sorted(idx)

    def test_bar_volumes_partition_trades(self):
        sim = make_sim(10)
        path = TransactionPath(pad_fractions([0.0, 0.049, 0.05, 0.1, 0.25, 0.3]))
        vols = bar_volumes(sim, path)
        # indices [0, 0, 1, 1, 3, 3, 10, 10, ...]: volumes 1, then 2+3, then 4..10
        assert vols[:7] == (0, 0, 1, 0, 5, 0, sum(range(4, 11)))
        assert sum(vols) == sum(t.volume for t in sim.trades)

    @settings(max_examples=60, deadline=None)
    @given(n_trades=st.integers(1, 400),
           counts=st.lists(st.integers(0, 3), min_size=MINUTES_PER_DAY,
                           max_size=MINUTES_PER_DAY).filter(any))
    def test_bar_volumes_match_loop_reference(self, n_trades, counts):
        sim = make_sim(n_trades)
        path = scaled_path_from_counts(counts)
        vols = bar_volumes(sim, path)
        assert vols == bar_volumes_loop(sim.trades, bar_indices(path, n_trades))
        assert all(type(v) is int for v in vols)

    def test_bar_volumes_ignore_an_index_that_steps_back(self):
        # fractions may dip by up to 1e-12, which can pull an index back by one
        sim = make_sim(1)
        path = TransactionPath(pad_fractions([0.5, 0.5 - 1e-13]))
        assert bar_indices(path, 1)[:3] == [1, 0, 1]
        assert bar_volumes(sim, path) == bar_volumes_loop(sim.trades, bar_indices(path, 1))


class TestLogReturns:
    def test_constant_bars_zero(self):
        bars = BarSeries(tuple([42.0] * MINUTES_PER_DAY), "d")
        assert np.all(log_returns(bars) == 0.0)

    def test_known_ratio(self):
        prices = [100.0, 110.0] + [110.0] * (MINUTES_PER_DAY - 2)
        r = log_returns(BarSeries(tuple(prices), "d"))
        assert r[0] == pytest.approx(np.log(1.1))
        assert len(r) == MINUTES_PER_DAY - 1

    @given(st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=MINUTES_PER_DAY,
                    max_size=MINUTES_PER_DAY))
    @settings(max_examples=30, deadline=None)
    def test_matches_elementwise_oracle(self, prices):
        r = log_returns(BarSeries(tuple(prices), "d"))
        for m in range(MINUTES_PER_DAY - 1):
            assert r[m] == pytest.approx(np.log(prices[m + 1] / prices[m]), abs=1e-12)


class TestSyntheticPaths:
    MEAN_TOTAL = 30_000  # transactions in an average synthetic day

    def test_uniform_path_near_linear(self):
        rng = np.random.default_rng(7)
        path = synthetic_reference_path(rng, "uniform", self.MEAN_TOTAL)
        linear = (np.arange(MINUTES_PER_DAY) + 1) / MINUTES_PER_DAY
        assert np.max(np.abs(np.asarray(path.fractions) - linear)) < 0.05

    def test_ushape_concentrates_open_close(self):
        rng = np.random.default_rng(11)
        path = synthetic_reference_path(rng, "ushape", self.MEAN_TOTAL)
        fr = np.asarray(path.fractions)
        assert fr[149] < 0.55
        assert fr[29] > 0.1  # first 30 minutes
        assert 1.0 - fr[MINUTES_PER_DAY - 31] > 0.1  # last 30 minutes

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            synthetic_reference_path(np.random.default_rng(0), "wedge", self.MEAN_TOTAL)

    def test_output_is_valid_path(self):
        for shape in ("uniform", "ushape"):
            path = synthetic_reference_path(np.random.default_rng(3), shape, self.MEAN_TOTAL)
            assert len(path.fractions) == MINUTES_PER_DAY
            assert path.fractions[-1] == 1.0


class TestCsvIO:
    def test_bars_roundtrip(self, tmp_path):
        bars = [
            BarSeries(tuple(np.linspace(100, 200, MINUTES_PER_DAY)), "a"),
            BarSeries(tuple(np.linspace(300, 250, MINUTES_PER_DAY)), "b"),
        ]
        out = tmp_path / "bars.csv"
        write_bars_csv(bars, out)
        back = read_bar_price_rows(out)
        assert [tuple(prices) for prices in back] == [b.mid_prices for b in bars]
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == BARS_CSV_HEADER
        assert [row[0] for row in rows[1:]] == ["a", "b"]

    def test_bars_wrong_width_names_row(self, tmp_path):
        out = tmp_path / "bad.csv"
        out.write_text("day_id,m001\nx,1.0\n")
        with pytest.raises(DataError, match="row 2"):
            read_bar_price_rows(out)

    def test_counts_read(self, tmp_path):
        out = tmp_path / "counts.csv"
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([1] * MINUTES_PER_DAY)
            writer.writerow([2] * MINUTES_PER_DAY)
        paths = load_paths(DEFAULT_CONFIG, str(out))
        assert len(paths) == 2
        assert paths[0].fractions == paths[1].fractions  # same shape after scaling

    def test_counts_non_integer_diagnostic(self, tmp_path):
        out = tmp_path / "counts.csv"
        row = ["1"] * MINUTES_PER_DAY
        row[3] = "x"
        out.write_text(",".join(["1"] * MINUTES_PER_DAY) + "\n" + ",".join(row) + "\n")
        with pytest.raises(DataError, match="row 2, column 4"):
            load_paths(DEFAULT_CONFIG, str(out))
