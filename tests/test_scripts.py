"""Every script in scripts/ still imports and parses its arguments, the
calibration script runs to its end, and the bench-pair summary computes
its statistics as documented."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script), "--help"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_calibrate_split_gain_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "calibrate_split_gain.py"),
                           "--reps", "2"], env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    noise, tasks = done.stdout.split("\n\n")
    rows = [line.split() for line in noise.splitlines()[2:]]
    assert [int(r[0]) for r in rows] == [50, 100, 500, 1000, 2000, 5000, 20000]
    rows = [line.split() for line in tasks.splitlines()[2:]]
    assert [r[0] for r in rows] == ["xor"] * 4 + ["rxor45"] * 4 + ["quads"] * 4
    assert all(len(r) == 4 and all(float(v) >= 0 for v in r[2:]) for r in rows)


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_run(ops, rss, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


DECLARED = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]


def test_bench_pairs_summary():
    declared = DECLARED
    results = {
        "parent": {"w": [_bench_run(10, 40), _bench_run(12, 41), _bench_run(11, 40),
                         _bench_run(13, 42)]},
        "change": {"w": [_bench_run(12, 40), _bench_run(12, 43), _bench_run(14, 41, failed=1),
                         _bench_run(15, 40)]},
    }
    summary = _script("bench_pairs").summarize(declared, [1, 2, 3, 4, 5], results)
    w = summary["w"]
    assert (w["pairs"], w["seeds"]) == (4, [1, 2, 3, 4])
    assert w["attempted"] == {"parent": 40, "change": 40}
    assert w["failed"] == {"parent": 0, "change": 1} and w["correct"] is False
    ops = w["metrics"]["ops_per_s"]
    assert ops["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25, "runs": [10, 12, 11, 13]}
    assert ops["change"] == {"median": 13.0, "q1": 12.0, "q3": 14.25, "runs": [12, 12, 14, 15]}
    # Higher is better: a higher median reads as negative relative_worse; the
    # tied pair counts for neither tree; a gap equal to the IQR does not exceed it.
    assert ops["relative_worse"] == round(-1.5 / 11.5, 4)
    assert ops["change_better_pairs"] == 3
    assert ops["within_bound"] is True and ops["median_gap_exceeds_parent_iqr"] is False
    rss = w["metrics"]["peak_rss_mb"]
    assert (rss["unit"], rss["better"], rss["bound"]) == ("MB", "lower", 0.05)
    assert rss["relative_worse"] == 0.0 and rss["change_better_pairs"] == 1


def test_bench_pairs_runs_the_change_first_on_odd_seeds(tmp_path, monkeypatch):
    bench_pairs = _script("bench_pairs")
    bench = {"command": ["python3", "perfbench/run.py"], "end_to_end": DECLARED,
             "workloads": [{"name": "w1"}, {"name": "w2"}]}
    for tree in ("p", "c"):
        (tmp_path / tree).mkdir()
        (tmp_path / tree / "BENCHMARK.json").write_text(json.dumps(bench))
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, workload, seed, seconds:
                        calls.append((tree.name, workload, seed)) or _bench_run(10, 40))
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c"),
                             "--pairs", "2", "--seconds", "1", "--out", str(out)]) == 0
    assert calls == [("c", "w1", 1), ("p", "w1", 1), ("c", "w2", 1), ("p", "w2", 1),
                     ("p", "w1", 2), ("c", "w1", 2), ("p", "w2", 2), ("c", "w2", 2)]
    written = json.loads(out.read_text())
    assert (written["pairs"], written["seeds"], written["window_s"]) == (2, [1, 2], 1.0)
    assert [w["pairs"] for w in written["workloads"].values()] == [2, 2]
