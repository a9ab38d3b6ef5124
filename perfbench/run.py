#!/usr/bin/env python3
"""Benchmark of the twisted-bernoulli package: sweeps and cold single calls.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|small]

Workloads (see perfbench/METRICS.md for why each was chosen):

  sweep-dense      `twisted-bernoulli verify --jobs 1` on a seeded grid
  sweep-dense-j2   the same grid at --jobs 2
  single-calls     a seeded list of cold compute-* and volkenborn calls

Every program run happens in a child interpreter with ``src`` on its path;
this process never imports the package.  With --trace 0 the run measures the
end-to-end metrics; with --trace 1 it makes one untraced and one traced
repetition and reports the per-layer metrics.  The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}; the
line before it records the environment and the input properties.  The exit
code is 0 when every correctness gate held, 1 when one failed, and 2 when the
run could not start (for instance when ``src/`` is missing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracer as tr  # noqa: E402

WORKLOADS = {
    "sweep-dense": {"kind": "sweep", "jobs": 1},
    "sweep-dense-j2": {"kind": "sweep", "jobs": 2},
    "single-calls": {"kind": "calls", "jobs": 1},
}

END_TO_END_UNITS = {
    "cpu_s": "s",
    "ops_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Set-up probes per run; the median is reported.
SETUP_REPS = 9
#: Upper bound on any one child process, in seconds.
CHILD_TIMEOUT = 170


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("TWISTED_BERNOULLI_JOBS", None)
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _run_child(argv: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run one child interpreter to completion.

    Returns the wall seconds, the CPU seconds (user + system) of the child and
    of the pool workers it waited for, and the result.  The child leads its
    own process group, so that on a timeout its workers are killed with it;
    every process is waited for.
    """
    c0 = _children_cpu()
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, *argv],
        env=_child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    wall = time.perf_counter() - t0
    return wall, _children_cpu() - c0, subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def file_digest(path: str) -> str:
    """SHA-256 of a program output file."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def environment(seed: int, backend: str) -> dict:
    return {
        "kernel_backend": backend,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up


def measure_setup(config_path: str) -> tuple[float, str]:
    """Median CPU time of interpreter start, import, config parse and grid
    expansion, over SETUP_REPS probes after one warm-up; and the backend."""
    _, _, warm = _run_child([os.path.join(HERE, "child.py"), "setup", config_path])
    if warm.returncode != 0:
        raise RuntimeError("set-up probe failed: " + warm.stderr.decode(errors="replace")[-2000:])
    times = []
    for _ in range(SETUP_REPS):
        _, cpu, proc = _run_child([os.path.join(HERE, "child.py"), "setup", config_path])
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
        times.append(cpu)
    return statistics.median(times), warm.stdout.decode().strip()


# ---------------------------------------------------------------------------
# sweeps


class Gate:
    """Counts operations attempted and failed, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


def _verify_argv(config: str, jobs: int, out: str) -> list[str]:
    return ["-m", "twisted_bernoulli", "verify", "--config", config, "--jobs", str(jobs), "--out", out]


def _check_sweep_output(gate: Gate, proc, out: str, expected: dict, seen: dict, label: str):
    """Exit code 0, a clean summary, and the same digest as every other run."""
    ok = proc.returncode == 0
    reason = f"{label}: exit code {proc.returncode}"
    digest = file_digest(out) if ok else ""
    if ok and digest not in seen:
        with open(out, "rb") as fh:
            summary = json.loads(fh.read())["summary"]
        seen[digest] = summary
    if ok:
        summary = seen[digest]
        ok = (
            summary["failures"] == 0
            and summary["errors"] == 0
            and summary["total"] == expected["instances"]
        )
        reason = f"{label}: summary {summary}"
    if ok and len(seen) > 1:
        ok = False
        reason = f"{label}: output digest differs between runs of one seed"
    gate.check(ok, reason)


def run_sweep(work: str, config_path: str, props: dict, seconds: float, trace: bool, gate: Gate) -> tuple[dict, dict]:
    jobs = WORKLOADS[work]["jobs"]
    out = os.path.join(os.path.dirname(config_path), "out.json")
    seen: dict[str, dict] = {}
    info: dict = {}
    if trace:
        wall, cpu, proc = _run_child(_verify_argv(config_path, jobs, out))
        _check_sweep_output(gate, proc, out, props, seen, "untraced")
        trace_path = os.path.join(os.path.dirname(config_path), "trace.json")
        argv = [os.path.join(HERE, "child.py"), "cli", trace_path, *_verify_argv(config_path, jobs, out)[2:]]
        _, traced_cpu, proc = _run_child(argv)
        _check_sweep_output(gate, proc, out, props, seen, "traced")
        snap = {}
        if proc.returncode == 0:
            with open(trace_path, encoding="utf-8") as fh:
                snap = json.load(fh)
        return layer_metrics(snap, jobs, wall, _ratio(traced_cpu, cpu), {}), info
    if jobs != 1:
        # the jobs-1 reference: both workloads must print the same bytes
        _, _, proc = _run_child(_verify_argv(config_path, 1, out))
        _check_sweep_output(gate, proc, out, props, seen, "jobs-1 reference")
    walls, cpus = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, cpu, proc = _run_child(_verify_argv(config_path, jobs, out))
        walls.append(wall)
        cpus.append(cpu)
        _check_sweep_output(gate, proc, out, props, seen, f"repetition {len(walls)}")
    info["repetition_wall_s"] = walls
    info["repetition_cpu_s"] = cpus
    info["output_sha256"] = sorted(seen)
    cpu_s = statistics.median(cpus)
    return {"cpu_s": cpu_s, "ops_per_cpu_s": props["instances"] / cpu_s}, info


# ---------------------------------------------------------------------------
# single calls


def _check_call(gate: Gate, call: dict, code: int, digest: str, first_digest: str, output: str | None, label: str):
    ok = code == 0
    reason = f"{label}: exit code {code}"
    if ok and digest != first_digest:
        ok, reason = False, f"{label}: output digest differs from the first pass"
    if ok and call["kind"] == "volkenborn":
        checks = json.loads(output)["checks"]
        ok = bool(checks) and all(c["passed"] is True for c in checks)
        reason = f"{label}: a volkenborn check did not pass"
    if ok and call["oracle"] == "numbers":
        ok = json.loads(output) == inputs.oracle_numbers(call["params"])
        reason = f"{label}: numbers differ from the Fraction oracle"
    if ok and call["oracle"] == "power_sum":
        ok = json.loads(output) == inputs.oracle_power_sum(call["params"])
        reason = f"{label}: power sum differs from the Fraction oracle"
    gate.check(ok, reason)


def _latencies(calls: list[dict], passes: list[dict]) -> dict:
    by_kind: dict[str, list[float]] = {"compute": [], "volkenborn": []}
    for p in passes:
        for call, ms in zip(calls, p["ms"]):
            by_kind[call["kind"]].append(ms)
    out = {}
    for kind, values in by_kind.items():
        out[f"{kind}_ms_p50"] = statistics.median(values) if values else 0.0
        out[f"{kind}_ms_p90"] = percentile(values, 90) if values else 0.0
        out[f"{kind}_calls"] = len(values)
    return out


def run_calls(calls_path: str, calls: list[dict], seconds: float, trace: bool, gate: Gate) -> tuple[dict, dict]:
    out = os.path.join(os.path.dirname(calls_path), "calls_out.json")
    argv = [os.path.join(HERE, "child.py"), "calls", calls_path, out, str(seconds), "1" if trace else "0"]
    _, _, proc = _run_child(argv)
    if not gate.check(proc.returncode == 0, "call runner failed: " + proc.stderr.decode(errors="replace")[-2000:]):
        return {}, {}
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    passes = result["passes"]
    first = passes[0]["digests"]
    for pi, p in enumerate(passes):
        for i, call in enumerate(calls):
            output = p["outputs"].get(str(i))
            _check_call(gate, call, p["codes"][i], p["digests"][i], first[i], output, f"pass {pi + 1} call {i} ({call['command']})")
    untraced = passes[:1] if trace else passes
    latencies = _latencies(calls, untraced)
    if trace:
        overhead = _ratio(passes[1]["cpu_s"], passes[0]["cpu_s"])
        return layer_metrics(result["trace"], 1, passes[0]["wall_s"], overhead, latencies), {}
    # a pass's CPU time, call by call, so that a burst of machine noise in
    # one pass moves only the calls it hit
    cpu_s = sum(statistics.median(p["cpu_ms"][i] for p in passes) for i in range(len(calls))) / 1000.0
    info = {
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_cpu_s": [p["cpu_s"] for p in passes],
        "latency_ms": latencies,
    }
    return {"cpu_s": cpu_s, "ops_per_cpu_s": len(calls) / cpu_s}, info


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(snap: dict, jobs: int, wall: float, overhead: float, latencies: dict) -> dict:
    """Per-layer metrics from a tracer snapshot, each {"value", "unit"}.

    Layers that did not run in the traced process read 0 (the pool workers of
    a jobs-2 sweep run untraced).
    """
    spans = snap.get("spans", {})
    counts = snap.get("counts", {})
    caches = snap.get("caches", {})
    out: dict[str, dict] = {}

    def put(name: str, value, unit: str):
        out[name] = {"value": value, "unit": unit}

    def span(name: str, field: str):
        return spans.get(name, {}).get(field, 0)

    def hit_ratio(name: str) -> float:
        c = caches.get(name, {"hits": 0, "misses": 0})
        return _ratio(c["hits"], c["hits"] + c["misses"])

    for tag in tr.SIDE_BUILDERS:
        put(f"identities.side.{tag}.calls", span(f"identities.side.{tag}", "calls"), "count")
        put(f"identities.side.{tag}.self_s", span(f"identities.side.{tag}", "self_s"), "s")
    for tag in tr.CHECKERS:
        put(f"identities.check.{tag}.s", span(f"identities.check.{tag}", "total_s"), "s")
    builds = counts.get("side_builds", 0)
    distinct = counts.get("side_builds_distinct", 0)
    put("identities.side_builds", builds, "count")
    put("identities.side_builds_distinct", distinct, "count")
    put("identities.side_distinct_ratio", _ratio(distinct, builds), "ratio")
    put("identities.trivial_frac", _ratio(counts.get("trivial_instances", 0), counts.get("instances", 0)), "ratio")
    put("identities.affine_poly.hit_ratio", hit_ratio("identities.affine_poly"), "ratio")
    put("identities.bern_at.hit_ratio", hit_ratio("identities.bern_at"), "ratio")
    put("identities.expand_grid.self_s", span("identities.expand_grid", "self_s"), "s")
    put("identities.report_to_record.self_s", span("identities.report_to_record", "self_s"), "s")
    worker_cpu = snap.get("worker_cpu_s", 0.0)
    put("identities.sweep.worker_cpu_s", worker_cpu, "s")
    put(
        "identities.sweep.worker_busy_frac",
        _ratio(worker_cpu, jobs * span("identities.sweep", "total_s")) if jobs > 1 else 0.0,
        "ratio",
    )

    put("exact.elem_ops", counts.get("elem_ops", 0), "count")
    put("exact.scalar_ops", counts.get("scalar_ops", 0), "count")
    put("exact.elem.self_s", span("exact.elem", "self_s"), "s")
    put("exact.inverse.calls", span("exact.inverse", "calls"), "count")
    put("exact.as_cyclo.calls", span("exact.as_cyclo", "calls"), "count")
    put("exact.norm.self_s", span("exact.norm", "self_s"), "s")
    put("exact.padic_valuation.self_s", span("exact.padic_valuation", "self_s"), "s")

    for fname in tr.KERNEL_FUNCTIONS:
        put(f"kernel.{fname}.calls", span(f"kernel.{fname}", "calls"), "count")
        put(f"kernel.{fname}.self_s", span(f"kernel.{fname}", "self_s"), "s")
    put("kernel.coord_mults", counts.get("coord_mults", 0), "count")

    put("powerseries.series_mul.calls", span("powerseries.series_mul", "calls"), "count")
    put("powerseries.series_mul.self_s", span("powerseries.series_mul", "self_s"), "s")
    put("powerseries.series_invert.self_s", span("powerseries.series_invert", "self_s"), "s")
    put("powerseries.divide_cancel.calls", span("powerseries.divide_cancel", "calls"), "count")
    put("powerseries.egf_coefficient.calls", span("powerseries.egf_coefficient", "calls"), "count")

    for fname in ("generating_series", "numbers", "polynomial", "power_sum"):
        put(f"bernoulli.{fname}.self_s", span(f"bernoulli.{fname}", "self_s"), "s")
    put("bernoulli.numbers.misses", caches.get("bernoulli.numbers", {}).get("misses", 0), "count")
    put("bernoulli.numbers.hit_ratio", hit_ratio("bernoulli.numbers"), "ratio")
    put("bernoulli.power_sum.hit_ratio", hit_ratio("bernoulli.power_sum"), "ratio")

    put("characters.value_at.calls", span("characters.value_at", "calls"), "count")
    put("characters.value_at.self_s", span("characters.value_at", "self_s"), "s")

    put("volkenborn.riemann_sum.calls", span("volkenborn.riemann_sum", "calls"), "count")
    put("volkenborn.riemann_sum.self_s", span("volkenborn.riemann_sum", "self_s"), "s")
    put("volkenborn.terms", counts.get("volkenborn_terms", 0), "count")
    put("volkenborn.convergence_check.self_s", span("volkenborn.convergence_check", "self_s"), "s")
    put("volkenborn.shift_identity_check.self_s", span("volkenborn.shift_identity_check", "self_s"), "s")

    put("cli.serialize.self_s", span("cli.serialize", "self_s"), "s")
    put("cli.output_bytes", counts.get("output_bytes", 0), "bytes")

    for kind in ("compute", "volkenborn"):
        for q in ("p50", "p90"):
            put(f"calls.{kind}_ms_{q}", latencies.get(f"{kind}_ms_{q}", 0.0), "ms")
    put("untraced.wall_s", wall, "s")
    put("trace_overhead_ratio", overhead, "ratio")
    return out


# ---------------------------------------------------------------------------
# main


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="input size; 'small' is for the benchmark's own smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "twisted_bernoulli", "__init__.py")):
        print(f"error: no package source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    work_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    gate = Gate()
    try:
        if spec["kind"] == "sweep":
            config = inputs.sweep_config(args.seed, args.size)
            props = inputs.sweep_properties(config)
            path = os.path.join(run_dir, "verify.json")
        else:
            config = inputs.calls_list(args.seed, args.size)
            props = inputs.calls_properties(config)
            path = os.path.join(run_dir, "calls.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        try:
            setup_s, backend = measure_setup(path)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if spec["kind"] == "sweep":
            metrics, info = run_sweep(args.workload, path, props, args.seconds, bool(args.trace), gate)
        else:
            metrics, info = run_calls(path, config, args.seconds, bool(args.trace), gate)
    except subprocess.TimeoutExpired as exc:
        gate.check(False, f"timed out: {exc}")
        metrics, info = {}, {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not args.trace:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {**metrics, "setup_s": setup_s, "peak_rss_mb": peak_kb / 1024.0}
        metrics = {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    correct = gate.failed == 0 and gate.attempted > 0
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "size": args.size,
        "environment": environment(args.seed, backend),
        "inputs": props,
        "details": info,
        "failures": gate.reasons,
    }
    print(json.dumps({"info": record}, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:>15s} {name:<44s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed if gate.attempted else 1,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
