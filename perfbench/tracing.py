"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each lobfactor module where
they are looked up: a name imported with ``from .x import y`` is bound in the
importing module, so ``decide_order`` is wrapped as ``lobfactor.engine.decide_order``
and ``run`` as ``lobfactor.calibration.run`` and ``lobfactor.cli.run``. No
source under ``src/`` changes.

Each wrapped call adds its duration to its name's total and, less the time of
the wrapped calls inside it, to its name's self time. The wrapper's own cost
counts as child time of the enclosing call, so it shows in neither; it shows
in the traced round's wall time (``trace.overhead_s``). A call into a layer
that runs at most a few times per trial is also kept as a span: name, start,
end and parent span. The order book and agent calls run tens of thousands of
times per trial; they are folded, so they count toward their parent's child
time and their own totals but keep no span of their own. Spans stay in
memory until ``write`` at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

from lobfactor import agents, calibration, cli, engine, orderbook
from lobfactor.orderbook import Side


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent span index]
        self.stats: dict[str, list] = {}  # name -> [calls, total seconds, self seconds]
        self.counts: Counter = Counter()
        self.trial_seconds: list[float] = []
        self.problems: list[str] = []
        self._stack: list[list] = []  # open calls: [span index or None, child seconds]
        self._patches: list[tuple] = []
        self._book = None

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, fn, name: str, folded: bool, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            entered = clock()
            if folded:
                frame = [None, 0.0]
            else:
                parent = next((f[0] for f in reversed(stack) if f[0] is not None), -1)
                frame = [len(spans), 0.0]
                spans.append([name, 0.0, 0.0, parent])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            elapsed = end - start
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed - frame[1]
            if frame[0] is not None:
                spans[frame[0]][1:3] = [start, end]
            if after is not None:
                after(args, result, elapsed)
            if stack:
                # the parent's child time includes this wrapper's own cost,
                # so tracing inflates neither the parent's self time nor ours
                stack[-1][1] += clock() - entered
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        Book = orderbook.Book
        targets = [
            (Book, "submit", "orderbook.submit", True, self._after_submit),
            (Book, "expire", "orderbook.expire", True, None),
            (Book, "mid_price", "orderbook.mid_price", True, None),
            (Book, "best_bid", "orderbook.best_bid", True, None),
            (Book, "best_ask", "orderbook.best_ask", True, None),
            (engine, "init_population", "agents.init_population", False, None),
            (engine, "predict_return", "agents.predict_return", True, None),
            (engine, "decide_order", "agents.decide_order", True, self._after_decide),
            (agents, "align_to_tick", "agents.align_to_tick", True, None),
            (calibration, "assign_calendar_time", "timegrid.assign_calendar_time", False, None),
            (calibration, "bar_volumes", "timegrid.bar_volumes", False, None),
            (calibration, "ot_distance", "metrics.ot_distance", False, self._after_ot),
            (calibration, "evaluate_combo", "calibration.evaluate_combo", False, None),
            (calibration, "scenario_stylized_facts", "calibration.stylized_rerun", False, None),
            (calibration.ComboLedger, "__init__", "calibration.ledger_load", False, None),
            (calibration.ComboLedger, "record", "calibration.ledger_record", False, None),
            (cli, "sweep_lambda_c", "calibration.sweep", False, None),
            (cli, "make_student_t_refs", "calibration.refs", False, None),
            (cli, "write_ticks_csv", "cli.write_ticks_csv", False, None),
            (cli, "read_bar_price_rows", "cli.read_bars", False, None),
            (cli, "main", "cli.main", False, None),
        ]
        for module in (calibration, cli):
            targets.append((module, "run", "engine.run", False, self._after_trial))
            for fn in ("standardize", "hill_index", "build_tail_cloud", "stylized_facts"):
                targets.append((module, fn, f"metrics.{fn}", False, None))
        targets.append((cli, "assign_calendar_time", "timegrid.assign_calendar_time", False, None))
        targets.append((cli, "ot_distance", "metrics.ot_distance", False, self._after_ot))
        for owner, attr, name, folded, after in targets:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, folded, after))

        post_init = Book.__post_init__

        def remember_book(book):
            post_init(book)
            self._book = book

        self._patch(Book, "__post_init__", remember_book)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters taken at the layer boundaries ----------------------------
    def _after_submit(self, args, trades, elapsed) -> None:
        self.counts["trades"] += len(trades)

    def _after_decide(self, args, order, elapsed) -> None:
        self.counts["orders"] += order is not None

    def _after_ot(self, args, result, elapsed) -> None:
        self.counts["ot_points"] += args[0].size + args[1].size

    def _after_trial(self, args, output, elapsed) -> None:
        """Book counters of the finished trial, and volume conservation:
        submitted = executed + expired + resting on each side."""
        book, self._book = self._book, None
        self.trial_seconds.append(elapsed)
        self.counts["ticks"] += len(output.ticks)
        if args[0].population.nu > 0.0:
            self.counts["mood_active_steps"] += sum(0.0 < r < 1.0 for r in output.optimists_rate)
        for side in (Side.BUY, Side.SELL):
            submitted = book.submitted_volume[side]
            executed, expired = book.executed_volume[side], book.expired_volume[side]
            self.counts["submitted_volume"] += submitted
            self.counts["executed_volume"] += executed
            self.counts["expired_volume"] += expired
            if submitted != executed + expired + book.resting_volume(side):
                self.problems.append(f"book: {side.value} volume not conserved, seed "
                                     f"{args[0].seed}: {submitted} submitted, {executed} executed, "
                                     f"{expired} expired, {book.resting_volume(side)} resting")

    # -- results -----------------------------------------------------------
    def _total(self, *names: str) -> float:
        return sum(self.stats[n][1] for n in names)

    def _self(self, name: str) -> float:
        return self.stats[name][2]

    def _calls(self, name: str) -> int:
        return self.stats[name][0]

    def layer_metrics(self, rounds: int, required_trials: int, output_bytes: int) -> dict:
        """Per-layer metrics, per traced round."""
        c = self.counts
        trials = self._calls("engine.run")
        trial_ms = np.asarray(self.trial_seconds) * 1e3
        per_round = {
            "orderbook.submit_s": (self._total("orderbook.submit"), "s"),
            "orderbook.expire_s": (self._total("orderbook.expire"), "s"),
            "orderbook.quote_s": (self._self("orderbook.mid_price")
                                  + self._total("orderbook.best_bid", "orderbook.best_ask"), "s"),
            "orderbook.submit_calls": (self._calls("orderbook.submit"), "count"),
            "orderbook.trades": (c["trades"], "count"),
            "orderbook.expired_volume": (c["expired_volume"], "shares"),
            "agents.init_population_s": (self._total("agents.init_population"), "s"),
            "agents.predict_return_s": (self._total("agents.predict_return"), "s"),
            "agents.decide_order_s": (self._total("agents.decide_order"), "s"),
            "agents.align_to_tick_s": (self._total("agents.align_to_tick"), "s"),
            "agents.decide_order_calls": (self._calls("agents.decide_order"), "count"),
            "engine.run_self_s": (self._self("engine.run"), "s"),
            "engine.run_s": (self._total("engine.run"), "s"),
            "engine.trials": (trials, "count"),
            "engine.ticks": (c["ticks"], "count"),
            "engine.mood_active_steps": (c["mood_active_steps"], "count"),
            "timegrid.assign_calendar_time_s": (self._total("timegrid.assign_calendar_time"), "s"),
            "timegrid.bar_volumes_s": (self._total("timegrid.bar_volumes"), "s"),
            "metrics.ot_distance_s": (self._total("metrics.ot_distance"), "s"),
            "metrics.ot_distance_calls": (self._calls("metrics.ot_distance"), "count"),
            "metrics.ot_points": (c["ot_points"], "count"),
            "metrics.tail_s": (self._total("metrics.standardize", "metrics.hill_index",
                                           "metrics.build_tail_cloud"), "s"),
            "metrics.stylized_facts_s": (self._total("metrics.stylized_facts"), "s"),
            "calibration.evaluate_combo_s": (self._total("calibration.evaluate_combo"), "s"),
            "calibration.evaluate_combo_calls": (self._calls("calibration.evaluate_combo"), "count"),
            "calibration.sweep_s": (self._total("calibration.sweep"), "s"),
            "calibration.stylized_rerun_s": (self._total("calibration.stylized_rerun"), "s"),
            "calibration.refs_s": (self._total("calibration.refs"), "s"),
            "calibration.ledger_s": (self._total("calibration.ledger_load",
                                                 "calibration.ledger_record"), "s"),
            "cli.write_ticks_csv_s": (self._total("cli.write_ticks_csv"), "s"),
            "cli.read_bars_s": (self._total("cli.read_bars"), "s"),
            "cli.self_s": (self._self("cli.main"), "s"),
            "cli.output_bytes": (output_bytes, "bytes"),
        }
        out = {name: (value / rounds, unit) for name, (value, unit) in per_round.items()}
        out["orderbook.fill_ratio"] = (c["executed_volume"] / max(c["submitted_volume"], 1), "ratio")
        out["agents.order_ratio"] = (c["orders"] / max(self._calls("agents.decide_order"), 1), "ratio")
        out["engine.trial_ms_p50"] = (float(np.percentile(trial_ms, 50)) if trials else 0.0, "ms")
        out["engine.trial_ms_p90"] = (float(np.percentile(trial_ms, 90)) if trials else 0.0, "ms")
        out["calibration.useful_trial_ratio"] = (required_trials * rounds / max(trials, 1), "ratio")
        return out

    def write(self, path: Path, header: dict) -> None:
        doc = dict(header, stats={n: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                                  for n, s in sorted(self.stats.items())},
                   counts=dict(self.counts), spans=self.spans)
        path.write_text(json.dumps(doc) + "\n")
