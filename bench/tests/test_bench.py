"""Tests of the benchmark's own machinery: span arithmetic, failure
counting, and that tracing leaves every result unchanged.

Run with ``python3 -m pytest bench/tests``.
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from neumann_lab import analysis, cli, models, operators, semigroup
from neumann_lab._expcf import POLES
from neumann_lab.graphs import VertexFunction


class FakeClock:
    """perf_counter stand-in that advances by one per reading, on any thread."""

    def __init__(self):
        self.now = -1.0
        self.lock = threading.Lock()

    def perf_counter(self):
        with self.lock:
            self.now += 1.0
            return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", fake.perf_counter)
    return fake


def by_name(recorder):
    return {s.name: s for s in recorder.spans}


class TestSpanArithmetic:
    def test_nested_self_time(self, clock):
        rec = spans.Recorder()
        with rec.span("outer"):          # t=0
            with rec.span("a"):          # t=1
                pass                     # t=2
            with rec.span("b"):          # t=3
                with rec.span("c"):      # t=4
                    pass                 # t=5
                clock.perf_counter()     # t=6
            pass                         # b ends t=7, outer ends t=8
        s = by_name(rec)
        assert s["outer"].duration == 8 and s["outer"].self_s == 8 - 1 - 4
        assert s["a"].self_s == 1
        assert s["b"].duration == 4 and s["b"].self_s == 3
        assert s["c"].parent == s["b"].id and s["b"].parent == s["outer"].id
        totals = rec.layer_totals()
        assert totals["outer.s"] == 8 and totals["outer.self_s"] == 3
        assert totals["b.calls"] == 1

    def test_recursive_name_counted_once_inclusive(self, clock):
        rec = spans.Recorder()
        with rec.span("x"):          # 0
            with rec.span("x"):      # 1
                pass                 # 2
        totals = rec.layer_totals()  # outer ends at 3
        assert totals["x.calls"] == 2
        assert totals["x.s"] == 3
        assert totals["x.self_s"] == 3

    def test_spans_on_two_threads_do_not_nest(self, clock):
        rec = spans.Recorder()

        def worker():
            with rec.span("worker"):
                pass

        with rec.span("main"):                 # 0
            t = threading.Thread(target=worker)
            t.start()                          # worker span 1..2
            t.join(timeout=10)
            assert not t.is_alive()
        s = by_name(rec)                       # main ends at 3
        assert s["worker"].parent is None and s["worker"].self_s == 1
        assert s["worker"].thread != s["main"].thread
        assert s["main"].duration == 3 and s["main"].self_s == 3

    def test_counts_from_many_threads(self):
        rec = spans.Recorder()

        def worker():
            for _ in range(1000):
                with rec.span("w"):
                    rec.count("n")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        totals = rec.layer_totals()
        assert totals["n"] == 4000 and totals["w.calls"] == 4000
        assert len({s.id for s in rec.spans}) == 4000


class TestFailureCounting:
    def test_raise_and_check_failure_are_both_counted(self):
        def boom():
            raise NameError("name 'mp' is not defined")

        def wrong(out):
            workloads.expect(out == 2, f"expected 2, got {out}")

        ops = [workloads.Operation("ok", lambda: 1, lambda out: None),
               workloads.Operation("raises", boom, lambda out: None),
               workloads.Operation("wrong", lambda: 1, wrong)]
        result = run.run_pass(ops)
        assert result["attempted"] == 3
        failed = {f["operation"]: f["error"] for f in result["failures"]}
        assert set(failed) == {"raises", "wrong"}
        assert "NameError" in failed["raises"]
        assert failed["wrong"].startswith("check failed")

    def test_cli_exit_code_is_checked(self, tmp_path):
        op = workloads._cli("bad", tmp_path, ["--model", "no-such-model",
                                              "--experiment", "classify"],
                            lambda payload: None)
        result = run.run_pass([op])
        assert [f["operation"] for f in result["failures"]] == ["bad"]


class TestTracingChangesNothing:
    ARGVS = (
        ["--model", "comb", "--experiment", "neumann-convergence",
         "--truncations", "2:4", "--ref", "6", "--alpha", "1.0"],
        ["--model", "bd:explosive", "--experiment", "l1-defect",
         "--truncations", "5:20:5"],
        ["--model", "bd:geo", "--experiment", "classify", "--horizon", "200"],
        ["--model", "comb", "--experiment", "feller", "--truncations", "2:18"],
    )

    @staticmethod
    def report(argv, prefix: Path) -> dict:
        assert cli.main(argv + ["--out", str(prefix)]) == 0
        payload = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
        payload.pop("timestamp")
        return payload

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda a: a[1] + "/" + a[3])
    def test_cli_report_identical(self, argv, tmp_path):
        plain = self.report(argv, tmp_path / "plain")
        rec = spans.Recorder()
        with spans.installed(rec):
            traced = self.report(argv, tmp_path / "traced")
        assert traced == plain
        assert rec.layer_totals()["cli.main.calls"] == 1

    def test_library_results_identical_and_restored(self):
        comb = models.PRESETS["comb"]()
        subset = models.comb_rectangle(4)  # stiff: goes through cf_heat
        phi = VertexFunction.indicator(models.comb_vertex_id(0, 0))
        before = (semigroup.SemigroupEngine.heat_vec, operators.assemble_neumann,
                  analysis.uniform_l1_check)

        def compute():
            res = analysis.uniform_l1_check(comb.graph, subset, 1.0, phi, grid=6)
            op = operators.assemble_dirichlet(comb.graph, subset)
            u = semigroup.SemigroupEngine(op).resolvent_vec(1.0, op.local_vector(phi))
            return res, u

        plain = compute()
        rec = spans.Recorder()
        with spans.installed(rec):
            traced = compute()
        assert traced[0] == plain[0]
        assert np.array_equal(traced[1], plain[1])
        assert before == (semigroup.SemigroupEngine.heat_vec, operators.assemble_neumann,
                          analysis.uniform_l1_check)
        totals = rec.layer_totals()
        assert totals["elim.cf_heat.calls"] == 5
        assert totals["elim.elimination_order.calls"] == 5 + 1
        assert totals["operators.assemble.calls"] == 2
        assert totals["elim.cf_heat.solves"] == 5 * len(POLES)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert set(run.summarize_wall([1.0] * 39)) == {"median", "samples"}
    assert "p75" in run.summarize_wall([float(i) for i in range(40)])
    assert "p90" in run.summarize_wall([float(i) for i in range(100)])


def test_fails_without_the_library(tmp_path):
    """A directory holding only the benchmark must fail without a result."""
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "stiff-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
