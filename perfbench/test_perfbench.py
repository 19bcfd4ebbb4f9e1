"""Tests of the benchmark's own checkers and of its smoke mode.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from qmet import demo_space, random_qspace  # noqa: E402
from qmet.hull import HullSample  # noqa: E402
from qmet.pairs import AmplePair  # noqa: E402
from tracing import NullTracer  # noqa: E402


def make_run(workload, tmp_path):
    r = bench.Run(workload)
    return r, r.build(1, workloads.PANEL_SEED, tmp_path, True)


def first_output(r, ops):
    return r.op_fn(ops[0], NullTracer())


def test_gh_value_off_by_1e3_counts_as_failed(tmp_path):
    r, ops = make_run("gh-search", tmp_path)
    out = first_output(r, ops)
    r.record(ops[0], out)
    assert r.failures == []
    out[3] = dataclasses.replace(out[3], value=out[3].value + 1e-3)
    r.record(ops[0], out)
    assert len(r.failures) == 1 and not r.correct()


def test_small_pairs_match_brute_force(tmp_path):
    r, ops = make_run("gh-search", tmp_path)
    out = first_output(r, ops)
    kind, X, Y, _, _ = ops[0].extra["searches"][-1]
    assert kind == "small"
    assert out[-1].value == pytest.approx(oracles.brute_gh(X.d, Y.d), abs=1e-12)


def test_raised_net_entry_counts_as_failed(tmp_path):
    r, ops = make_run("hull-stability", tmp_path)
    g, HX, HY, net = first_output(r, ops)
    r.record(ops[0], (g, HX, HY, net))
    assert r.failures == []
    pts = list(HX.points)
    p = pts[-1]
    f1 = p.f1.copy()
    f1[1] += 0.01
    pts[-1] = AmplePair(p.space, f1, p.f2, p.certified_minimal, p.certified_tol)
    bad = HullSample(HX.space, tuple(pts), HX.seed, HX.spread)
    r.record(ops[0], (g, bad, HY, net))
    assert len(r.failures) == 1 and not r.correct()
    assert "residual" in r.failures[0][1][0]


def tampered_report(out, **changes):
    rc, stdout, stderr = out
    report = json.loads(stdout)
    report.update(changes)
    return rc, json.dumps(report), stderr


def test_delta_upper_below_lower_bound_counts_as_failed(tmp_path):
    r, ops = make_run("delta-cli", tmp_path)
    op = next(o for o in ops if o.kind == "demo")
    out = r.op_fn(op, NullTracer())
    r.record(op, out)
    assert r.failures == []
    report = json.loads(out[1])
    r.record(op, tampered_report(out, heuristic_upper=report["lower"] - 0.01))
    assert len(r.failures) == 1
    # the named fault: counted as failed, the run stays correct
    assert r.correct()


def test_delta_known_fault_reproduces(tmp_path):
    r, ops = make_run("delta-cli", tmp_path)
    op = next(o for o in ops if o.id == "repro6")
    r.record(op, r.op_fn(op, NullTracer()))
    assert len(r.failures) == 1 and r.correct()


def test_delta_upper_read_under_either_name(tmp_path):
    r, ops = make_run("delta-cli", tmp_path)
    op = next(o for o in ops if o.kind == "demo")
    rc, stdout, stderr = r.op_fn(op, NullTracer())
    report = json.loads(stdout)
    report["upper"] = report.pop("heuristic_upper")
    # a schema that names the certified upper value, as the report would ship
    schema = json.loads(r.check.schema_path.read_text())
    schema["required"] = ["upper" if k == "heuristic_upper" else k for k in schema["required"]]
    schema["properties"]["upper"] = schema["properties"].pop("heuristic_upper")
    r.check.cache["schema"] = schema
    assert r.check.check_delta_cli(op, (rc, json.dumps(report), stderr)) == []
    report["upper"] = report["lower"] - 0.01
    assert r.check.check_delta_cli(op, (rc, json.dumps(report), stderr)) != []


def test_delta_report_must_match_schema(tmp_path):
    r, ops = make_run("delta-cli", tmp_path)
    out = r.op_fn(ops[0], NullTracer())
    reasons = r.check.check_delta_cli(ops[0], tampered_report(out, samples="many"))
    assert reasons and reasons[0].startswith("report invalid")


def test_crash_counts_as_failed_and_incorrect(tmp_path):
    r, ops = make_run("gh-search", tmp_path)
    r.record(ops[0], RuntimeError("boom"))
    assert len(r.failures) == 1 and not r.correct()


def test_delta_bounds_bracket_analytic_constants():
    X = demo_space("sierpinski")
    assert oracles.delta_lower(X.d, seed=0) <= 0.5 + 1e-12
    assert oracles.delta_lower(X.d, seed=0) > 0.49
    assert 0.5 <= oracles.delta_grid_upper(X.d, 9) <= 0.5 + 1.0 / 16 + 1e-12


def test_retraction_lands_on_the_hull():
    X = random_qspace(5, np.random.default_rng(0))
    F1, F2 = oracles.retract(X.d, np.random.default_rng(1).uniform(0, X.diam, (50, 5)))
    assert oracles.ample_excess(X.d, F1, F2) <= 1e-12
    assert oracles.conjugation_residual(X.d, F1, F2) <= 1e-12


@pytest.mark.parametrize("workload", ["hull-stability", "gh-search", "delta-cli"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_result(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", trace, "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected_failed = result["attempted"] // 2 if workload == "delta-cli" else 0
    assert result["failed"] == expected_failed
    names = {"0": {"ops_per_s", "setup_s", "peak_rss_mb"}, "1": {"gh.nodes_per_s", "trace.overhead_s"}}
    assert names[trace] <= set(result["metrics"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gh-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""
