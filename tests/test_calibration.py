"""Scenario enumeration, combo evaluation, grid calibration, and the combo ledger."""

import concurrent.futures
import dataclasses
import hashlib
import json
import types

import numpy as np
import pytest

from lobfactor.calibration import (
    CalibrationError,
    Combo,
    ComboLedger,
    ComboMetrics,
    LedgerError,
    build_config,
    calibrate,
    enumerate_combos,
    evaluate_combo,
    make_student_t_refs,
    trial_path_index,
    trial_series,
)
from lobfactor.config import (
    CashSpec,
    ExperimentConfig,
    ParameterGrid,
    PathsSpec,
    PopulationConfig,
    RefsSpec,
    SimulationConfig,
)
from lobfactor.metrics import (
    ABS_AUTOCORR_LAGS,
    DegenerateSeriesError,
    StylizedFactReport,
    build_tail_cloud,
    default_tail_k,
    standardize,
    stylized_facts,
)
from lobfactor.timegrid import MINUTES_PER_DAY, TransactionPath, synthetic_reference_path

import lobfactor.calibration as calibration_mod


def small_base() -> SimulationConfig:
    return SimulationConfig(
        population=PopulationConfig(n_agents=30),
        t_sim=250,
        no_exec_windows=((1, 20), (120, 130)),
    )


# the searched fields of small_base(): build_config(small_base(), COMBO) changes nothing
(COMBO,) = enumerate_combos(0, ParameterGrid(alpha=(0.1,)), CashSpec())
# three trials of each evaluated combo, seeds 50, 51 and 52
THREE_TRIALS = ExperimentConfig(trials=3, base_seed=50)
SMALL_REFS = RefsSpec(count=2, n_samples=2000)


@pytest.fixture(scope="module")
def paths() -> list[TransactionPath]:
    rng = np.random.default_rng(5)
    return [synthetic_reference_path(rng, s, PathsSpec().mean_total)
            for s in ("uniform", "ushape", "uniform")]


class TestScenarioSpec:
    """A scenario number's components, as enumerate_combos reads them."""

    def test_component_flags(self):
        expected = {
            0: (False, False, False),
            1: (True, False, False),
            2: (False, True, False),
            3: (False, False, True),
            4: (True, True, False),
            5: (True, False, True),
            6: (False, True, True),
            7: (True, True, True),
        }
        for n, (p, c, m) in expected.items():
            for combo in enumerate_combos(n, ParameterGrid(), CashSpec()):
                assert (combo.cash_kind == "pareto", combo.lambda_c > 0, combo.lambda_m > 0) \
                    == (p, c, m)

    @pytest.mark.parametrize("bad", [-1, 8, 100])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            enumerate_combos(bad, ParameterGrid(), CashSpec())


class TestEnumerateCombos:
    def test_combo_counts(self):
        grid = ParameterGrid()
        counts = [len(enumerate_combos(n, grid, CashSpec())) for n in range(8)]
        assert counts == [6, 6, 30, 90, 30, 90, 450, 450]

    def test_scenario_0_pins_everything_but_alpha(self):
        combos = enumerate_combos(0, ParameterGrid(), CashSpec())
        assert all(c.cash_kind == "uniform" for c in combos)
        assert all(c.lambda_c == 0.0 and c.lambda_m == 0.0 and c.nu == 0.0 for c in combos)
        assert [c.alpha for c in combos] == [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]

    def test_scenario_7_searches_everything_nonzero(self):
        combos = enumerate_combos(7, ParameterGrid(), CashSpec())
        assert all(c.cash_kind == "pareto" for c in combos)
        assert all(c.lambda_c > 0 and c.lambda_m > 0 and c.nu > 0 for c in combos)
        assert {c.lambda_c for c in combos} == {1.5, 1.75, 2.0, 2.25, 2.5}
        assert {c.nu for c in combos} == {0.3, 0.5, 0.7}

    def test_mood_only_scenario_keeps_chartist_off(self):
        combos = enumerate_combos(3, ParameterGrid(), CashSpec())
        assert all(c.lambda_c == 0.0 and c.cash_kind == "uniform" for c in combos)
        assert {c.lambda_m for c in combos} == {1e-5, 2e-5, 3e-5, 4e-5, 5e-5}

    def test_enumeration_order_is_stable(self):
        grid = ParameterGrid()
        assert enumerate_combos(6, grid, CashSpec()) == enumerate_combos(6, grid, CashSpec())

    def test_combos_take_the_base_cash_with_the_scenario_kind(self):
        base = CashSpec(kind="uniform", c_max=9_000.0, c_min=7_000.0, beta=2.0)
        for n, kind in ((0, "uniform"), (1, "pareto")):
            combos = enumerate_combos(n, ParameterGrid(), base)
            assert all((c.cash_kind, c.c_max, c.c_min, c.beta) == (kind, 9_000.0, 7_000.0, 2.0)
                       for c in combos)

    def test_combo_digest_distinguishes_combos(self):
        combos = enumerate_combos(7, ParameterGrid(), CashSpec())
        digests = {c.digest for c in combos}
        assert len(digests) == len(combos)


class TestBuildConfig:
    def test_population_fields_updated(self):
        base = small_base()
        combo = Combo(cash_kind="pareto", c_max=9_000.0, c_min=7_000.0, beta=2.0,
                      lambda_c=2.5, lambda_m=3e-5, nu=0.7, alpha=0.15)
        cfg = build_config(base, combo)
        assert cfg.population.cash == CashSpec(kind="pareto", c_max=9_000.0, c_min=7_000.0,
                                               beta=2.0)
        assert cfg.population.lambda_c == 2.5
        assert cfg.population.lambda_m == 3e-5
        assert cfg.population.nu == 0.7
        assert cfg.population.alpha == 0.15

    def test_other_fields_preserved(self):
        base = small_base()
        cfg = build_config(base, dataclasses.replace(COMBO, alpha=0.3))
        assert cfg.t_sim == base.t_sim
        assert cfg.no_exec_windows == base.no_exec_windows
        assert cfg.population.n_agents == base.population.n_agents
        assert base.population.alpha == 0.1  # base untouched


class TestTrialPathIndex:
    def test_deterministic_and_in_range(self):
        for i in range(20):
            a = trial_path_index(7701, i, 3)
            assert a == trial_path_index(7701, i, 3)
            assert 0 <= a < 3

    def test_earlier_trials_unaffected_by_count(self):
        first = [trial_path_index(7701, i, 5) for i in range(5)]
        assert [trial_path_index(7701, i, 5) for i in range(10)][:5] == first


class TestEvaluateCombo:
    def test_repeat_is_identical(self, paths):
        refs = make_student_t_refs(SMALL_REFS)
        cfg = small_base()
        a = evaluate_combo(cfg, COMBO, THREE_TRIALS, refs, paths)
        b = evaluate_combo(cfg, COMBO, THREE_TRIALS, refs, paths)
        assert a.hill == b.hill
        assert a.mean_ot == b.mean_ot
        assert a.n_pooled == b.n_pooled

    def test_pooled_size_and_tail_k(self, paths):
        cfg = small_base()
        m = evaluate_combo(cfg, COMBO, THREE_TRIALS, refs=[], paths=paths)
        returns, volumes, n_degenerate = trial_series(build_config(cfg, COMBO), THREE_TRIALS,
                                                      paths)
        assert n_degenerate == m.n_degenerate
        assert m.n_pooled == (3 - m.n_degenerate) * (MINUTES_PER_DAY - 1)
        assert m.k_used == default_tail_k(m.n_pooled)
        assert sum(r.size for r in returns) == m.n_pooled
        assert sum(v.size for v in volumes) == m.n_pooled

    def test_stylized_facts_of_pooled_series(self, paths):
        cfg = small_base()
        m = evaluate_combo(cfg, COMBO, THREE_TRIALS, refs=[], paths=paths)
        returns, volumes, _ = trial_series(build_config(cfg, COMBO), THREE_TRIALS, paths)
        assert m.stylized == stylized_facts(np.concatenate(returns),
                                            volumes=np.concatenate(volumes))

    def test_undefined_stylized_facts_keep_combo_stable(self, paths, monkeypatch):
        def degenerate(returns, volumes=None):
            raise DegenerateSeriesError("zero-variance input to correlation")

        monkeypatch.setattr(calibration_mod, "stylized_facts", degenerate)
        m = evaluate_combo(small_base(), COMBO, THREE_TRIALS, refs=[], paths=paths)
        assert not m.unstable and m.hill is not None
        assert m.stylized is None

    def test_self_reference_gives_zero_ot(self, paths):
        cfg = small_base()
        returns, _, _ = trial_series(build_config(cfg, COMBO), THREE_TRIALS, paths)
        own = build_tail_cloud(np.abs(standardize(np.concatenate(returns))))
        again = evaluate_combo(cfg, COMBO, THREE_TRIALS, refs=[own], paths=paths)
        assert again.mean_ot == 0.0

    def test_all_degenerate_marks_unstable(self, paths):
        cfg = dataclasses.replace(small_base(), no_exec_windows=((1, 250),))
        m = evaluate_combo(cfg, COMBO, ExperimentConfig(trials=2, base_seed=50), refs=[],
                           paths=paths)
        assert m.n_degenerate == 2
        assert m.unstable
        assert m.hill is None and m.mean_ot is None

    def test_majority_degenerate_marks_unstable(self, paths, monkeypatch):
        real_run = calibration_mod.run

        def flaky_run(cfg, **kwargs):
            out = real_run(cfg, **kwargs)
            if cfg.seed % 2 == 0:
                return dataclasses.replace(out, trades=[])
            return out

        monkeypatch.setattr(calibration_mod, "run", flaky_run)
        m = evaluate_combo(small_base(), COMBO, ExperimentConfig(trials=5, base_seed=50), refs=[],
                           paths=paths)
        assert m.n_degenerate == 3  # seeds 50, 52, 54
        assert m.unstable
        assert m.hill is None and m.mean_ot is None

    def test_asks_for_no_tick_log(self, paths, monkeypatch):
        real_run = calibration_mod.run
        requests = []

        # the config stays positional: the benchmark tracer reads it as args[0]
        def recording_run(cfg, **kwargs):
            requests.append(kwargs)
            return real_run(cfg, **kwargs)

        monkeypatch.setattr(calibration_mod, "run", recording_run)
        evaluate_combo(small_base(), COMBO, THREE_TRIALS, refs=[], paths=paths)
        assert requests == [{"record_ticks": False}] * THREE_TRIALS.trials

    def test_rejects_zero_trials(self, paths):
        with pytest.raises(ValueError):
            evaluate_combo(small_base(), COMBO, ExperimentConfig(trials=0), refs=[], paths=paths)


def _fake_metrics(combo: Combo, mean_ot: float, hill: float, unstable: bool = False):
    stylized = None if unstable else StylizedFactReport(
        kurtosis=hill, vol_volume_corr=0.1, abs_autocorr=dict.fromkeys(ABS_AUTOCORR_LAGS, 0.1))
    return ComboMetrics(combo=combo, hill=None if unstable else hill, k_used=10,
                        mean_ot=None if unstable else mean_ot, ot_std=0.0, n_trials=2,
                        n_degenerate=0, n_pooled=100, unstable=unstable, stylized=stylized)


FAILING_ALPHAS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
FAILING_COMBO = 4


def _evaluate_failing_at_k(base, combo, exp, refs, paths):
    """Fails at combo FAILING_COMBO of an alpha grid FAILING_ALPHAS; defined at
    module level, so a process pool can send it to its workers."""
    if combo.alpha == FAILING_ALPHAS[FAILING_COMBO - 1]:
        raise RuntimeError(f"combo {FAILING_COMBO} failed")
    return _fake_metrics(combo, mean_ot=1.0, hill=3.0)


class TestCalibrate:
    EXP = ExperimentConfig(trials=2, grid=ParameterGrid(
        lambda_c=(0.0, 2.5), lambda_m=(0.0,), nu=(0.0,), alpha=(0.1, 0.2, 0.3)))

    def _patched(self, monkeypatch, score):
        def fake_evaluate(base, combo, exp, refs, paths):
            return score(combo)

        monkeypatch.setattr(calibration_mod, "evaluate_combo", fake_evaluate)

    def test_argmin_on_mean_ot(self, monkeypatch, paths):
        self._patched(monkeypatch, lambda c: _fake_metrics(c, mean_ot=c.alpha, hill=3.0))
        r = calibrate(0, self.EXP, small_base(), refs=[], paths=paths)
        assert r.best.combo.alpha == 0.1

    def test_tie_breaks_on_hill_near_three(self, monkeypatch, paths):
        hills = {0.1: 4.0, 0.2: 3.1, 0.3: 2.0}
        self._patched(monkeypatch, lambda c: _fake_metrics(c, mean_ot=1.0, hill=hills[c.alpha]))
        r = calibrate(0, self.EXP, small_base(), refs=[], paths=paths)
        assert r.best.combo.alpha == 0.2

    def test_full_tie_takes_first_enumerated(self, monkeypatch, paths):
        self._patched(monkeypatch, lambda c: _fake_metrics(c, mean_ot=1.0, hill=3.0))
        r = calibrate(0, self.EXP, small_base(), refs=[], paths=paths)
        assert r.best.combo.alpha == 0.1

    def test_unstable_combo_never_wins(self, monkeypatch, paths):
        def score(c):
            if c.alpha == 0.1:
                return _fake_metrics(c, mean_ot=0.0, hill=3.0, unstable=True)
            return _fake_metrics(c, mean_ot=c.alpha, hill=3.0)

        self._patched(monkeypatch, score)
        r = calibrate(0, self.EXP, small_base(), refs=[], paths=paths)
        assert r.best.combo.alpha == 0.2
        assert len(r.per_combo) == 3

    def test_all_unstable_raises(self, monkeypatch, paths):
        self._patched(monkeypatch, lambda c: _fake_metrics(c, 0.0, 3.0, unstable=True))
        with pytest.raises(CalibrationError):
            calibrate(0, self.EXP, small_base(), refs=[], paths=paths)

    def test_pool_is_capped_at_pending_tasks_and_cpus(self, monkeypatch, paths):
        self._patched(monkeypatch, lambda c: _fake_metrics(c, mean_ot=c.alpha, hill=3.0))
        sizes = []

        class RecordingPool:  # starts no process: records its size, runs tasks in process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        for cpus in (2, 64, 1, None):  # three combos are pending each time
            monkeypatch.setattr(calibration_mod.os, "cpu_count", lambda: cpus)
            calibrate(0, self.EXP, small_base(), refs=[], paths=paths, workers=64)
        assert sizes == [2, 3]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_at_combo_k_keeps_the_k_minus_1_before_it(self, monkeypatch, tmp_path,
                                                               paths, workers):
        grid = dataclasses.replace(self.EXP.grid, alpha=FAILING_ALPHAS)
        k = FAILING_COMBO
        # the pool sends the function by name, and forks, so its workers find
        # the patched evaluate_combo in this module
        monkeypatch.setattr(calibration_mod, "evaluate_combo", _evaluate_failing_at_k)
        ledger_file = tmp_path / "ledger.jsonl"
        with pytest.raises(RuntimeError, match=f"combo {k} failed"):
            calibrate(0, dataclasses.replace(self.EXP, grid=grid), small_base(), refs=[],
                      paths=paths, ledger=ComboLedger(ledger_file), workers=workers)
        lines = ledger_file.read_text().splitlines()
        assert [json.loads(line)["combo"]["alpha"] for line in lines] == list(grid.alpha[:k - 1])


class TestLedger:
    def test_resume_skips_finished_combos(self, tmp_path, paths):
        refs = make_student_t_refs(SMALL_REFS)
        exp = ExperimentConfig(trials=2, grid=ParameterGrid(
            lambda_c=(0.0, 2.5), lambda_m=(0.0,), nu=(0.0,), alpha=(0.1, 0.3)))
        ledger_file = tmp_path / "ledger.jsonl"
        base = small_base()
        r1 = calibrate(2, exp, base, refs, paths, ledger=ComboLedger(ledger_file))
        n_lines = sum(1 for _ in open(ledger_file))
        assert n_lines == 2

        # a fresh ledger object reloads the file; nothing reruns
        with pytest.MonkeyPatch.context() as mp:
            def boom(*a, **k):
                raise AssertionError("combo re-evaluated despite ledger entry")

            mp.setattr(calibration_mod, "evaluate_combo", boom)
            r2 = calibrate(2, exp, base, refs, paths, ledger=ComboLedger(ledger_file))
        assert r2.best.combo == r1.best.combo
        assert r2.best.mean_ot == r1.best.mean_ot
        assert sum(1 for _ in open(ledger_file)) == n_lines

    def test_key_includes_seed_and_trials(self, tmp_path, paths):
        refs = make_student_t_refs(SMALL_REFS)
        grid = ParameterGrid(lambda_c=(0.0,), lambda_m=(0.0,), nu=(0.0,), alpha=(0.3,))
        ledger_file = tmp_path / "ledger.jsonl"
        for trials, base_seed in ((2, 50), (2, 60), (3, 50)):
            exp = ExperimentConfig(trials=trials, base_seed=base_seed, grid=grid)
            calibrate(0, exp, small_base(), refs, paths, ledger=ComboLedger(ledger_file))
        records = [json.loads(line) for line in open(ledger_file)]
        assert len(records) == 3
        assert {(r["base_seed"], r["n_trials"]) for r in records} == {(50, 2), (60, 2), (50, 3)}

    def test_each_combo_is_hashed_once(self, tmp_path, monkeypatch, paths):
        calls = []

        def sha256(blob):
            calls.append(blob)
            return hashlib.sha256(blob)

        monkeypatch.setattr(calibration_mod, "hashlib", types.SimpleNamespace(sha256=sha256))
        grid = ParameterGrid(lambda_c=(0.0,), lambda_m=(0.0,), nu=(0.0,), alpha=(0.1, 0.3))
        calibrate(0, ExperimentConfig(trials=2, grid=grid), small_base(), refs=[], paths=paths,
                  ledger=ComboLedger(tmp_path / "ledger.jsonl"))
        assert len(calls) == len(set(calls)) == 2  # the lookup's hash serves the record

    def test_partial_ledger_resumes_remaining(self, tmp_path, paths):
        refs = make_student_t_refs(SMALL_REFS)
        exp = ExperimentConfig(trials=2, grid=ParameterGrid(
            lambda_c=(0.0, 2.5), lambda_m=(0.0,), nu=(0.0,), alpha=(0.1, 0.3)))
        base = small_base()
        full = calibrate(2, exp, base, refs, paths)

        ledger_file = tmp_path / "ledger.jsonl"
        seed_ledger = ComboLedger(ledger_file)
        seed_ledger.record(2, 1000, full.per_combo[0])  # pretend one combo finished

        resumed = calibrate(2, exp, base, refs, paths, ledger=ComboLedger(ledger_file))
        assert resumed.best.combo == full.best.combo
        assert resumed.best.mean_ot == full.best.mean_ot

    def test_stylized_facts_round_trip(self, tmp_path, paths):
        refs = make_student_t_refs(SMALL_REFS)
        grid = ParameterGrid(lambda_c=(0.0,), lambda_m=(0.0,), nu=(0.0,), alpha=(0.1, 0.3))
        ledger_file = tmp_path / "ledger.jsonl"
        fresh = calibrate(0, ExperimentConfig(trials=2, grid=grid), small_base(), refs, paths,
                          ledger=ComboLedger(ledger_file))
        reloaded = ComboLedger(ledger_file)
        for m in fresh.per_combo:
            assert reloaded.lookup(0, m.combo, 1000, 2) == m

    def test_line_without_stylized_facts_is_evaluated_again(self, tmp_path, paths):
        refs = make_student_t_refs(SMALL_REFS)
        grid = ParameterGrid(lambda_c=(0.0,), lambda_m=(0.0,), nu=(0.0,), alpha=(0.1, 0.3))
        ledger_file = tmp_path / "ledger.jsonl"
        calibrate(0, ExperimentConfig(trials=2, grid=grid), small_base(), refs, paths,
                  ledger=ComboLedger(ledger_file))
        records = [json.loads(line) for line in ledger_file.read_text().splitlines()]
        del records[0]["stylized"]  # a line written before the field existed
        ledger_file.write_text("".join(json.dumps(r) + "\n" for r in records))
        ledger = ComboLedger(ledger_file)
        first, second = enumerate_combos(0, grid, CashSpec())
        assert ledger.lookup(0, first, 1000, 2) is None
        assert ledger.lookup(0, second, 1000, 2) is not None

    def test_line_of_another_run_digest_is_evaluated_again(self, tmp_path):
        ledger_file = tmp_path / "ledger.jsonl"
        ComboLedger(ledger_file, "run-a").record(0, 1000, _fake_metrics(COMBO, 1.0, 3.0))
        line = ledger_file.read_text()
        assert ComboLedger(ledger_file, "run-a").lookup(0, COMBO, 1000, 2) is not None
        assert ledger_file.read_text() == line
        assert ComboLedger(ledger_file, "run-b").lookup(0, COMBO, 1000, 2) is None
        assert ledger_file.read_text() == ""  # rewritten without run-a's line
        record = json.loads(line)
        del record["run_digest"]  # a line written before the ledger held run digests
        ledger_file.write_text(json.dumps(record) + "\n")
        assert ComboLedger(ledger_file).lookup(0, COMBO, 1000, 2) is None
        assert ledger_file.read_text() == ""

    def test_unreadable_line_before_the_last_raises(self, tmp_path):
        ledger_file = tmp_path / "ledger.jsonl"
        ledger_file.write_text('{"scenario": 0\n{}\n')
        with pytest.raises(LedgerError):
            ComboLedger(ledger_file)

    def test_json_line_that_is_not_an_object_before_the_last_raises(self, tmp_path):
        ledger_file = tmp_path / "ledger.jsonl"
        ledger_file.write_text("5\n{}\n")
        with pytest.raises(LedgerError, match="line 1"):
            ComboLedger(ledger_file, "x")

    def test_json_last_line_that_is_not_an_object_is_dropped(self, tmp_path, capsys):
        ledger_file = tmp_path / "ledger.jsonl"
        ComboLedger(ledger_file, "x").record(0, 1000, _fake_metrics(COMBO, 1.0, 3.0))
        line = ledger_file.read_text()
        ledger_file.write_text(line + '["scenario", 0]\n')
        ledger = ComboLedger(ledger_file, "x")
        assert ledger.lookup(0, COMBO, 1000, 2) is not None
        assert ledger_file.read_text() == line
        assert "cut-off line 2" in capsys.readouterr().err

    def test_cut_off_last_line_is_dropped_from_the_file(self, tmp_path, capsys):
        ledger_file = tmp_path / "ledger.jsonl"
        combos = [dataclasses.replace(COMBO, alpha=a) for a in (0.1, 0.2)]
        writer = ComboLedger(ledger_file)
        for combo in combos:
            writer.record(0, 1000, _fake_metrics(combo, mean_ot=1.0, hill=3.0))
        whole = ledger_file.read_text().splitlines(keepends=True)
        ledger_file.write_text(whole[0] + whole[1][:-20])
        ledger = ComboLedger(ledger_file)
        assert ledger.lookup(0, combos[0], 1000, 2) is not None
        assert ledger.lookup(0, combos[1], 1000, 2) is None
        assert ledger_file.read_text() == whole[0]
        assert "cut-off line 2" in capsys.readouterr().err


class TestStudentTRefs:
    def test_shapes(self):
        refs = make_student_t_refs(RefsSpec(count=3, n_samples=2000))
        assert len(refs) == 3
        for cloud in refs:
            assert cloud.points.shape == (default_tail_k(2000),)

    def test_deterministic_and_distinct(self):
        a = make_student_t_refs(SMALL_REFS)
        b = make_student_t_refs(SMALL_REFS)
        assert np.array_equal(a[0].points, b[0].points)
        assert not np.array_equal(a[0].points, a[1].points)

    def test_default_sizes(self):
        refs = make_student_t_refs(RefsSpec())
        assert len(refs) == 18
        assert refs[0].points.shape == (1500,)

