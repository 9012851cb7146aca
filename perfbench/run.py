"""tasksim benchmark: one workload, one seed, one timed window.

    python3 perfbench/run.py --workload analytic-grid --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from the repository root or anywhere: the program is imported from
the ``src/`` directory next to this one, never from an installed copy.
A run is a closed loop with one client: each op is one or two in-process
``tasksim.cli.main`` calls (``--workers 1``), started when the previous
one returns, until ``--seconds`` have passed.  Outputs are checked after
the window, and one op is rerun to check that it writes identical bytes.

Times are in reference seconds: wall time scaled by the host-speed
calibration taken before each op (see calibration.py).

``--trace 0`` reports the end-to-end metrics; ``setup_s`` is the median
over several fresh processes of the time from spawn to the first timed
op (import, input generation, warm-up op).  ``--trace 1`` alternates
untraced and traced ops on the same inputs and reports the per-layer
metrics of the traced ones, plus traced/untraced ``op_s.p50`` as the
tracing overhead; spans are written to ``.perfbench/traces/``.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Metric names and units are those declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import calibration
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_ROOT = os.path.join(ROOT, ".perfbench")
SETUP_RUNS = 5
MIN_OPS_FOR_P90 = 100
PROBE_TIMEOUT_S = 120


def import_cli():
    """tasksim.cli from this checkout's src/, or exit non-zero without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tasksim", "cli.py")):
        raise SystemExit(f"error: no tasksim sources under {src}")
    sys.path.insert(0, src)
    from tasksim import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported tasksim from {cli.__file__}, not {src}")
    return cli


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_op(cli, argvs) -> tuple[list, list[str]]:
    """Run one op's CLI calls; return their exit codes and captured stdout."""
    codes, outs = [], []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
            except Exception as exc:  # the op fails; the run goes on
                code = f"raised {exc!r}"
        codes.append(code)
        outs.append(buf.getvalue())
    return codes, outs


class Run:
    def __init__(self, cli, workload, seconds: float, work: str, tracer=None):
        self.cli = cli
        self.wl = workload
        self.seconds = seconds
        self.work = work
        self.tracer = tracer
        self.ops: list[dict] = []

    def op(self, i: int, traced: bool) -> None:
        out = os.path.join(self.work, f"op{i}{'t' if traced else ''}")
        argvs = self.wl.op_argvs(i, out)
        calib = calibration.seconds()
        if traced:
            self.tracer.install()
        t0 = time.perf_counter()
        if traced:
            codes, outs = self.tracer.run_op(i, lambda: run_op(self.cli, argvs))
        else:
            codes, outs = run_op(self.cli, argvs)
        t1 = time.perf_counter()
        if traced:
            self.tracer.uninstall()
        self.ops.append({"i": i, "out": out, "codes": codes, "stdouts": outs,
                         "s": t1 - t0, "calib": calib, "traced": traced})

    def measure(self) -> None:
        deadline = time.perf_counter() + self.seconds
        i = 0
        while True:
            if self.tracer is None:
                self.op(i, False)
            else:
                # Same input untraced and traced, alternating which goes first.
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    self.op(i, traced)
            i += 1
            if time.perf_counter() >= deadline:
                break
        cal = calibration.smoothed([r["calib"] for r in self.ops])
        for r, c in zip(self.ops, cal):
            r["ref_s"] = r["s"] * calibration.REF_S / c

    def check(self) -> list[str]:
        """Check every op, then rerun op 0 into its own directory and compare bytes."""
        problems = []
        for r in self.ops:
            bad = []
            if any(c != 0 for c in r["codes"]):
                bad.append(f"exit codes {r['codes']}")
            else:
                try:
                    bad = self.wl.check_op(r["i"], r["out"], r["stdouts"])
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    bad = [f"unreadable output: {exc!r}"]
            r["ok"] = not bad
            problems += [f"op {r['i']}: {b}" for b in bad]
        run_bad = self.wl.check_run(self.ops)
        if run_bad:
            for r in self.ops:
                r["ok"] = False
            problems += run_bad
        first = next(r for r in self.ops if not r["traced"])
        kept = first["out"] + ".first"
        os.rename(first["out"], kept)
        codes, _ = run_op(self.cli, self.wl.op_argvs(first["i"], first["out"]))
        if any(c != 0 for c in codes):
            bad = [f"exit codes {codes}"]
        else:
            bad = workloads.same_files(kept, first["out"])
        self.rerun_ok = not bad
        return problems + [f"rerun of op {first['i']}: {b}" for b in bad]

    @property
    def attempted(self) -> int:
        return len(self.ops) + 1

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.ops) + (not self.rerun_ok)


def percentile90(xs: list[float]) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def setup_seconds(args) -> tuple[float, float]:
    """Spawn-to-first-op time of one fresh process (import, inputs and warm-up),
    and the host calibration taken just before it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    calib = calibration.seconds()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed, calib


def setup(cli, args, work: str):
    """Generate the seeded inputs and run the warm-up op; return the workload."""
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    codes, _ = run_op(cli, wl.warmup_argvs(os.path.join(work, "warmup")))
    if any(c != 0 for c in codes):
        raise RuntimeError(f"warm-up op exited {codes}")
    return wl


def run_one(args) -> int:
    cli = import_cli()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        if args.setup_probe:
            setup(cli, args, work)
            print("ready", flush=True)
            return 0
        trace = bool(args.trace)
        units = declared_metrics(trace)
        setups = [] if trace else [setup_seconds(args) for _ in range(SETUP_RUNS)]
        wl = setup(cli, args, work)
        tracer = tracing.Tracer() if trace else None
        run = Run(cli, wl, args.seconds, work, tracer)
        run.measure()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = run.check()
        plain = [r["ref_s"] for r in run.ops if not r["traced"]]
        host = statistics.median(r["calib"] for r in run.ops)
        if trace:
            problems += [f"trace: {p}" for p in tracer.problems()]
            traced = [r for r in run.ops if r["traced"]]
            metrics = tracer.layer_metrics(calibration.REF_S / host)
            metrics["cli.output_bytes"] = float(statistics.mean(
                workloads.output_bytes(r["out"]) for r in traced))
            metrics["trace.overhead_ratio"] = (
                statistics.median(r["ref_s"] for r in traced) / statistics.median(plain))
            os.makedirs(os.path.join(WORK_ROOT, "traces"), exist_ok=True)
            tracer.save(os.path.join(WORK_ROOT, "traces", f"{args.workload}-seed{args.seed}.npz"))
        else:
            metrics = {
                "setup_s": (statistics.median(s for s, _ in setups) * calibration.REF_S
                            / statistics.median(c for _, c in setups)),
                "ops_per_s": len(plain) / sum(plain),
                "op_s.p50": statistics.median(plain),
                "op_s.p90": percentile90(plain),
                "peak_rss_mb": peak_rss_mb,
            }
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                               "are not both measured and declared in BENCHMARK.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems[:20]:
        print(f"FAILED CHECK: {p}", file=sys.stderr)
    fail_ratio = run.failed / run.attempted
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(run.ops)} ops "
          f"in {args.seconds} s, fail_ratio {fail_ratio:g} ({run.failed}/{run.attempted})")
    if len(plain) < MIN_OPS_FOR_P90:
        print(f"  note: {len(plain)} untraced ops; a p90 with ten samples beyond it "
              f"needs {MIN_OPS_FOR_P90}")
    for name in sorted(metrics):
        print(f"  {name:44s} {metrics[name]:.6g} {units[name]}")
    raw = statistics.median(r["s"] for r in run.ops if not r["traced"])
    print(f"  times in reference seconds: host calibration {host * 1e3:.2f} ms, reference "
          f"{calibration.REF_S * 1e3:.2f} ms; wall-clock op_s.p50 {raw:.6g} s")
    if not trace:
        print(f"  (op_s over n={len(plain)} ops; setup_s median of {SETUP_RUNS} processes)")
    print(json.dumps({
        "correct": run.failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; relay their reports, end with a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


class Terminated(BaseException):
    """SIGTERM, raised past the ops' exception handlers so the run unwinds:
    set-up probes are killed and waited for, work files removed."""


def _terminate(signum, frame):
    raise Terminated


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
