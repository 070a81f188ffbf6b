#!/usr/bin/env python3
"""geoplasma benchmark: end-to-end CLI runs and a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's scenario is generated from --seed, then the public CLI
(``geoplasma.cli.main``) runs on it in a fresh single-threaded
interpreter, one invocation after another (closed loop, one client),
until --seconds have been measured.  One untimed warm-up invocation comes
first.  Every invocation's output passes the correctness gate in
``workloads.check_output``; at the recorded default seed its bytes must
also match the SHA-256 in ``sha256.json``, and all invocations of a run
(traced or not) must give identical bytes.

--trace 0 reports the end-to-end metrics.
--trace 1 alternates untraced and traced invocations and reports the
per-layer metrics from the traced ones, plus the tracing overhead.
--tiny runs the self-test sizes (a few units per invocation).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit, failed_frac included.
See README.md in this directory for what each metric is meant to move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402

# Set-up functions probed per subcommand: the scenario module's public
# functions as geoplasma.cli bound them.  Each must run exactly once per
# invocation; their time, with interpreter start and import, is set-up, and
# the rest of cli.main is the subcommand's work.
SETUP_FUNCTIONS = {
    "residuals": ("load_scenario", "evaluation_points"),
    "verify": ("load_scenario", "evaluation_points"),
    "streamline": ("load_scenario",),
    "streamsheet": ("load_scenario", "sheet_axes_and_values"),
}
CHILD_TIMEOUT_S = 120
MIN_SAMPLES = 3
WORK_DIR = ".perfbench-work"
SHA_FILE = os.path.join(HERE, "sha256.json")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "units_per_s": "1/s", "wall_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here: no geoplasma source tree."""


def load_expected_sha():
    """Recorded output SHA-256 per workload at the default seed."""
    with open(SHA_FILE) as fh:
        return json.load(fh)


def child_env(work):
    env = dict(os.environ)
    for key in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(key, None)
    env["PYTHONHASHSEED"] = "0"
    # bytecode cache inside the work directory, so set-up measures a
    # cached import without writing into the source tree
    env["PYTHONPYCACHEPREFIX"] = os.path.join(work, "pycache")
    for key in THREAD_VARS:
        env[key] = "1"
    return env


class Runner:
    """Runs CLI invocations of one prepared workload and checks each."""

    def __init__(self, root, workload, seed, tiny):
        self.root = root
        self.wl = W.WORKLOADS[workload]
        self.seed = seed
        self.work = os.path.join(root, WORK_DIR)
        self.run_dir = os.path.join(self.work, f"run-{os.getpid()}")
        os.makedirs(self.run_dir, exist_ok=True)
        self.env = child_env(self.work)
        scenario = os.path.join(self.run_dir, "scenario.json")
        self.out = os.path.join(self.run_dir, "out")
        self.argv, self.units = W.prepare(workload, seed, scenario, self.out, tiny=tiny)
        # at the default seed and full size the bytes must match the record
        self.expected_sha = None
        if seed == W.DEFAULT_SEED and not tiny:
            self.expected_sha = load_expected_sha().get(workload, "not recorded")
        self.first_sha = None
        self.reasons = []

    def spans_path(self):
        return os.path.join(self.work, f"spans-{self.wl.name}-seed{self.seed}.csv")

    def invoke(self, trace):
        """One fresh-interpreter CLI invocation; returns a sample dict."""
        spec_path = os.path.join(self.run_dir, "spec.json")
        result_path = os.path.join(self.run_dir, "result.json")
        for path in (self.out, result_path):
            if os.path.exists(path):
                os.remove(path)
        spec = {
            "src": os.path.join(self.root, "src"),
            "argv": self.argv,
            "setup": SETUP_FUNCTIONS[self.wl.subcommand],
            "trace": trace,
            "result": result_path,
            "spans": self.spans_path(),
        }
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), spec_path]
        with open(os.path.join(self.run_dir, "stdout"), "wb") as out, \
                open(os.path.join(self.run_dir, "stderr"), "wb") as err:
            spawn_ns = time.monotonic_ns()
            try:
                proc = subprocess.run(cmd, stdout=out, stderr=err, env=self.env,
                                      cwd=self.run_dir, timeout=CHILD_TIMEOUT_S)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = None
        done_ns = time.monotonic_ns()
        sample = {"trace": trace, "attempted": self.units, "completed": 0,
                  "correct": False, "duration_s": (done_ns - spawn_ns) / 1e9}
        if code is None:
            return self._fail(sample, f"timed out after {CHILD_TIMEOUT_S} s")
        if not os.path.exists(result_path):
            with open(os.path.join(self.run_dir, "stderr"), "rb") as fh:
                tail = fh.read().decode(errors="replace").strip().splitlines()[-1:]
            return self._fail(sample, f"child exit {code} without result {tail}")
        with open(result_path) as fh:
            res = json.load(fh)
        data = None
        if os.path.exists(self.out):
            with open(self.out, "rb") as fh:
                data = fh.read()
        verdict = W.check_output(self.wl.name, data, res["exit_code"], self.units)
        if not verdict.correct:
            return self._fail(sample, verdict.reason)
        sha = W.sha256(data)
        if self.first_sha is None:
            self.first_sha = sha
        if sha != self.first_sha:
            return self._fail(sample, "output bytes differ between invocations")
        if self.expected_sha is not None and sha != self.expected_sha:
            return self._fail(sample, "output SHA-256 differs from sha256.json")
        expected_calls = {name: 1 for name in SETUP_FUNCTIONS[self.wl.subcommand]}
        if res["setup_calls"] != expected_calls:
            return self._fail(sample, f"set-up probes ran {res['setup_calls']}, "
                                      f"expected {expected_calls}")
        sample["correct"] = True
        sample["completed"] = verdict.completed
        setup_ns = res["main_ns"] - spawn_ns + res["setup_call_ns"]
        work_ns = res["end_ns"] - res["main_ns"] - res["setup_call_ns"]
        sample["setup_s"] = setup_ns / 1e9
        sample["work_s"] = work_ns / 1e9
        sample["wall_s"] = (res["end_ns"] - spawn_ns) / 1e9
        sample["units_per_s"] = verdict.completed / sample["work_s"]
        sample["peak_rss_mb"] = res["peak_rss_kb"] / 1024.0
        if trace:
            sample["trace_summary"] = res["trace"]
        return sample

    def _fail(self, sample, reason):
        # an invocation whose output fails the gate counts every unit as failed
        sample["completed"] = 0
        self.reasons.append(reason)
        return sample

    def cleanup(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)


def end_to_end(samples):
    """Run-level end-to-end metrics from the run's correct untraced
    invocations, each timed as a whole.

    The machine this was built on switches between speed states every few
    seconds (invocation times cluster at about 0.9, 1.1 and 1.45 s on
    residuals).  A median over invocations lands on one state or another
    depending on their share of the run, so wall_s is the mean and
    units_per_s the run's throughput (units over summed work time); both
    move smoothly with those shares.  setup_s and peak_rss_mb are medians.
    """
    return {
        "setup_s": statistics.median(smp["setup_s"] for smp in samples),
        "units_per_s": (sum(smp["completed"] for smp in samples)
                        / sum(smp["work_s"] for smp in samples)),
        "wall_s": statistics.fmean(smp["wall_s"] for smp in samples),
        "peak_rss_mb": statistics.median(smp["peak_rss_mb"] for smp in samples),
    }


def layer_metrics(summary, units):
    """Per-layer metrics from one traced invocation's summary."""
    calls = summary["calls"]
    self_s = summary["self_s"]
    total = sum(self_s.values())  # self times partition the root span

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def share(*names):
        return 100.0 * sum(s(n) for n in names) / total

    eps0_seeds = summary["parent_calls"].get("lagrange.resolve_epsilon0>dual.seed", 0)
    return {
        "cli.self_s": (s("cli.main"), "s"),
        "scenario.load_scenario.s": (s("scenario.load_scenario"), "s"),
        "scenario.inputs.share": (share("scenario.evaluation_points",
                                        "scenario.sheet_axes_and_values"), "%"),
        "expr.evaluate.calls": (c("expr.evaluate"), "count"),
        "expr.evaluate.s": (s("expr.evaluate"), "s"),
        "dual.seed.calls": (c("dual.seed"), "count"),
        "dual.seed.per_unit": (c("dual.seed") / units, "count/unit"),
        "dual.jet_ops.calls": (c("dual.jet_ops"), "count"),
        "dual.jet_ops.s": (s("dual.jet_ops"), "s"),
        "tensor_core.invert_symmetric.calls": (c("tensor_core.invert_symmetric"), "count"),
        "tensor_core.invert_symmetric.per_unit":
            (c("tensor_core.invert_symmetric") / units, "count/unit"),
        "tensor_core.invert_symmetric.s": (s("tensor_core.invert_symmetric"), "s"),
        "riemann.riemann_report.calls": (c("riemann.riemann_report"), "count"),
        "riemann.riemann_report.share": (share("riemann.riemann_report"), "%"),
        "lagrange.h_stream_line_rhs.share": (share("lagrange.h_stream_line_rhs"), "%"),
        "lagrange.v_stream_constraint_residual.share":
            (share("lagrange.v_stream_constraint_residual"), "%"),
        "lagrange.resolve_epsilon0.calls": (c("lagrange.resolve_epsilon0"), "count"),
        "lagrange.resolve_epsilon0.share": (share("lagrange.resolve_epsilon0"), "%"),
        "lagrange.eps0_seeds_per_solve":
            (eps0_seeds / c("lagrange.resolve_epsilon0")
             if c("lagrange.resolve_epsilon0") else 0.0, "count/solve"),
        "multitime.metric_compatibility.share":
            (share("multitime.metric_compatibility"), "%"),
        "multitime.multitime_residuals.share": (share("multitime.multitime_residuals"), "%"),
        "multitime.cartan_gamma.share": (share("multitime.cartan_gamma"), "%"),
        "multitime.stream_sheet_residuals.calls":
            (c("multitime.stream_sheet_residuals"), "count"),
        "multitime.stream_sheet_residuals.share":
            (share("multitime.stream_sheet_residuals"), "%"),
        "multitime.prolong_sheet.share": (share("multitime.prolong_sheet"), "%"),
        "verify.invariants_at.calls": (c("verify.invariants_at"), "count"),
        "verify.invariants_at.share": (share("verify.invariants_at"), "%"),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes: a few units per invocation")
    return ap.parse_args(argv)


def environment():
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def run(args):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "geoplasma", "cli.py")):
        raise BenchError("run from the root of a geoplasma checkout (src/geoplasma missing)")
    runner = Runner(root, args.workload, args.seed, args.tiny)
    try:
        # untimed warm-up (bytecode and page cache); its output is gated too
        warm_up = runner.invoke(trace=0)
        samples = measure(runner, args) if warm_up["correct"] else [warm_up]
    finally:
        runner.cleanup()
    return report(runner, args, samples)


def measure(runner, args):
    samples = []
    start = time.monotonic()
    modes = (0, 1) if args.trace else (0,)
    while True:
        for mode in modes:
            samples.append(runner.invoke(trace=mode))
        untraced = [s for s in samples if s["trace"] == 0]
        if not all(s["correct"] for s in samples):
            break
        step = sum(s["duration_s"] for s in samples[-len(modes):])
        if len(untraced) >= MIN_SAMPLES and time.monotonic() - start + step > args.seconds:
            break
    return samples


def report(runner, args, samples):
    wl = runner.wl
    attempted = sum(s["attempted"] for s in samples)
    failed = attempted - sum(s["completed"] for s in samples)
    correct = all(s["correct"] for s in samples)
    untraced = [s for s in samples if s["trace"] == 0 and s["correct"]]
    traced = [s for s in samples if s["trace"] == 1 and s["correct"]]
    env = " ".join(f"{k}={v}" for k, v in environment().items())
    print(f"# {wl.name} seed={args.seed} trace={args.trace} tiny={int(args.tiny)} "
          f"unit={wl.unit} units/invocation={runner.units} {env} "
          f"invocations={len(untraced)} untraced, {len(traced)} traced")
    for reason in runner.reasons:
        print(f"# correctness gate: {reason}")
    metrics = {}
    if untraced and not args.trace:
        for name, value in end_to_end(untraced).items():
            unit = END_TO_END_UNITS[name]
            values = [smp[name] for smp in untraced]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<14} {value:.6g} {unit}  ({len(values)} invocations: median "
                  f"{statistics.median(values):.6g}, min {min(values):.6g}, "
                  f"max {max(values):.6g})")
    if traced and untraced and args.trace:
        per = [layer_metrics(s["trace_summary"], runner.units) for s in traced]
        for name in per[0]:
            unit = per[0][name][1]
            values = [p[name][0] for p in per]
            if unit.startswith("count"):
                if len(set(values)) != 1:
                    correct = False
                    print(f"# correctness gate: {name} differs between traced invocations")
                metrics[name] = {"value": values[0], "unit": unit}
            else:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        overhead = (statistics.fmean(smp["wall_s"] for smp in traced)
                    - statistics.fmean(smp["wall_s"] for smp in untraced))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for name, m in metrics.items():
            print(f"{name:<44} {m['value']:.6g} {m['unit']}")
        self_s = traced[0]["trace_summary"]["self_s"]
        print("# self seconds by traced function (first traced invocation):")
        for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
            calls = traced[0]["trace_summary"]["calls"][name]
            print(f"#   {name:<40} {value:9.4f} s  {calls:>9} calls")
        print(f"# spans written to {os.path.relpath(runner.spans_path())}")
    frac = failed / attempted
    print(f"{'failed_frac':<14} {frac:.6g} fraction  ({failed} of {attempted} {wl.unit}s)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
