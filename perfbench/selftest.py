"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Checkers: one real op per workload must pass its checker, and every
   corrupted copy of its outputs must be reported, so the checks are not
   vacuous.  The run-level checks (ETS diagonal, byte-identical rerun) get
   the same treatment.
2. Short mode: each workload runs for a couple of seconds untraced and
   traced; every metric declared in BENCHMARK.json must be printed with
   its unit, and the trace must satisfy its structural expectations.
3. A directory holding only BENCHMARK.json and this directory must make
   the benchmark exit non-zero without printing a result.

Exits 0 when everything holds; prints one line per finding.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import reference
import run
import workloads

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _edit_csv_cell(path, row, col, value):
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    rows[row][col] = repr(value(float(rows[row][col])))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")


def _set(key, a, b, value):
    def edit(d):
        d[key][a][b] = value(d[key][a][b])
    return edit


# name -> list of (description, corrupt(out_dir, stdouts) -> stdouts)
CORRUPTIONS = {
    "analytic-grid": [
        ("ts self-similarity 1 - 1e-6",
         lambda o, s: _edit_json(f"{o}/analytic.json", _set("ts", 0, 0, lambda v: v - 1e-6)) or s),
        ("ats above ts by 1e-6",
         lambda o, s: _edit_json(f"{o}/analytic.json",
                                 lambda d: d["ats"][0].__setitem__(2, d["ts"][0][2] + 1e-6)) or s),
        ("builtin ats(rxor <- fxor) off by 1e-8",
         lambda o, s: _edit_json(f"{o}/analytic.json", _set("ats", 1, 2, lambda v: v + 1e-8)) or s),
        ("builtin ts(xor <- rxor) off by 1e-8",
         lambda o, s: _edit_json(f"{o}/analytic.json", _set("ts", 3, 1, lambda v: v - 1e-8)) or s),
        ("ts.csv value differs from analytic.json in the last digit",
         lambda o, s: _edit_csv_cell(f"{o}/ts.csv", 2, 3, lambda v: math.nextafter(v, 0.0)) or s),
        ("validate reported an error",
         lambda o, s: [s[0].replace("OK:", "ERROR:"), *s[1:]]),
    ],
    "ets-matrix": [
        ("ETS mean above 1",
         lambda o, s: _edit_json(f"{o}/ets_summary.json", _set("ets_mean", 2, 1, lambda v: 1.5)) or s),
        ("per-replication ETS below 0",
         lambda o, s: _edit_csv_cell(f"{o}/ets_replications.csv", 2, 5, lambda v: -0.001) or s),
    ],
    "convergence": [
        ("analytic_ts off by 1e-11",
         lambda o, s: _edit_json(f"{o}/convergence.json",
                                 lambda d: d["points"][2].update(analytic_ts=d["points"][2]["analytic_ts"] + 1e-11)) or s),
        ("ETS replication value above 1",
         lambda o, s: _edit_json(f"{o}/convergence.json",
                                 lambda d: d["points"][0]["ets"]["values"].__setitem__(1, 1.25)) or s),
    ],
}


def test_checkers(cli, work: str) -> None:
    ts45, ats45 = reference.builtin_block(45)
    expect(abs(ats45[0][1] - 0.5) < 1e-12, "reference: ats(rxor45 <- fxor) = 1/2")
    expect(abs(ts45[2][0] - 0.5) < 1e-12 and ats45[2][0] == 0.0,
           "reference: ts(xor <- rxor45) = 1/2 with every cell tied")
    for name, corruptions in CORRUPTIONS.items():
        os.makedirs(os.path.join(work, name))
        wl = workloads.WORKLOADS[name](0, os.path.join(work, name))
        good = os.path.join(work, f"{name}-good")
        codes, stdouts = run.run_op(cli, wl.op_argvs(0, good))
        expect(codes == [0] * len(codes) and wl.check_op(0, good, stdouts) == [],
               f"{name}: a real op passes its checker")
        for what, corrupt in corruptions:
            bad = os.path.join(work, f"{name}-bad")
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(good, bad)
            try:
                found = wl.check_op(0, bad, corrupt(bad, list(stdouts)))
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                found = [repr(exc)]
            expect(bool(found), f"{name}: corrupted output is caught ({what})")
        expect(wl.check_run([{"out": good, "ok": True}]) == [], f"{name}: run-level check passes")
        flipped = os.path.join(work, f"{name}-flipped")
        shutil.copytree(good, flipped)
        victim = os.path.join(flipped, sorted(os.listdir(flipped))[0])
        with open(victim, "r+b") as fh:
            first = fh.read(1)
            fh.seek(0)
            fh.write(bytes([first[0] ^ 1]))
        expect(workloads.same_files(good, good) == [] and bool(workloads.same_files(good, flipped)),
               f"{name}: rerun comparison sees one changed byte")

    # A corrupted op is counted in `failed`, next to a clean op and a clean rerun.
    conv = workloads.WORKLOADS["convergence"](0, work)
    r = run.Run(cli, conv, 0, work)
    r.ops = [{"i": 0, "out": os.path.join(work, "convergence-good"), "codes": [0],
              "stdouts": [""], "traced": False},
             {"i": 0, "out": os.path.join(work, "convergence-bad"), "codes": [0],
              "stdouts": [""], "traced": False}]
    r.check()
    expect((r.attempted, r.failed) == (3, 1), "convergence: a corrupted op counts as failed")

    ets = workloads.WORKLOADS["ets-matrix"](0, work)
    low = os.path.join(work, "ets-low")
    shutil.copytree(os.path.join(work, "ets-matrix-good"), low)
    _edit_json(f"{low}/ets_summary.json", _set("ets_mean", 2, 2, lambda v: 0.8))
    results = [{"out": low, "ok": True}, {"out": os.path.join(work, "ets-matrix-good"), "ok": True}]
    expect(bool(ets.check_run(results)), "ets-matrix: run-mean diagonal below 0.9 is caught")


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def test_short_mode() -> None:
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, run.__file__, "--workload", name, "--seed", "5",
                 "--seconds", "2", "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=300, check=False)
            res = _last_json(proc.stdout)
            label = f"{name} --trace {trace}"
            expect(proc.returncode == 0 and res is not None and res["correct"]
                   and res["failed"] == 0, f"{label}: short run is correct")
            if res is None:
                continue
            units = run.declared_metrics(bool(trace))
            m = res["metrics"]
            expect(set(m) == set(units) and all(
                m[k]["unit"] == u and isinstance(m[k]["value"], float) for k, u in units.items()),
                f"{label}: every declared metric is reported with its unit")
            expect(all(f"{k} " in proc.stdout and f" {u}\n" in proc.stdout for k, u in units.items()),
                   f"{label}: every metric is printed by name with its unit")
            if not trace:
                expect(all(m[k]["value"] > 0 for k in units), f"{label}: no end-to-end metric is 0")
                continue
            v = {k: x["value"] for k, x in m.items()}
            self_sum = sum(x for k, x in v.items() if k.endswith(".self_s"))
            expect(abs(self_sum - v["trace.op_s"]) <= 1e-9 * v["trace.op_s"],
                   f"{label}: the layers' self times sum to the traced op time")
            if name == "analytic-grid":
                expect(v["similarity.profiles_per_pair"] == 2.0, f"{label}: profiles_per_pair is 2.0")
                expect(all(v[k] == 0 for k in v if k.startswith("learners.")),
                       f"{label}: learners do no work")
            if name == "ets-matrix":
                expect(v["geometry.intersection_area.calls"] == 0, f"{label}: no polygon clips")
            if name == "convergence":
                expect(v["learners.fit_histogram.calls"] > 0, f"{label}: fit_histogram runs")


def test_bare_directory(work: str) -> None:
    bare = os.path.join(work, "bare")
    shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "convergence", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
        check=False)
    expect(proc.returncode != 0 and _last_json(proc.stdout) is None,
           "without the program's sources the benchmark fails without a result")


def main() -> int:
    cli = run.import_cli()
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT)
    try:
        test_checkers(cli, work)
        test_bare_directory(work)
        test_short_mode()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
