"""Child-process entry points of the benchmark.

run.py starts every program run in a fresh interpreter through this file, so
that the benchmark's own process never imports the package:

  child.py setup CONFIG            set-up probe: import, config parse, grid expansion
  child.py calls CALLS OUT SECONDS TRACE
                                   cold single calls through cli.run, in passes
  child.py cli TRACE_OUT ARGV...   the `twisted-bernoulli` command, traced

Untraced sweeps run the real command (`python -m twisted_bernoulli`) instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def _setup(config_path: str) -> int:
    import twisted_bernoulli.cli  # noqa: F401  (imports every layer)
    from twisted_bernoulli import _kernel, identities

    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    if isinstance(config, dict) and "grids" in config:
        for grid in config["grids"]:
            for _ in identities.expand_grid(grid):
                pass
    print(_kernel.BACKEND)
    return 0


def _calls(calls_path: str, out_path: str, seconds: float, trace: bool) -> int:
    """Run the call list in passes, each call after clearing every lru_cache.

    Untraced: passes repeat until ``seconds`` have elapsed (at least one).
    Traced: one untraced pass, then one traced pass.
    """
    from twisted_bernoulli import cli

    import tracer as tr

    with open(calls_path, encoding="utf-8") as fh:
        calls = json.load(fh)
    caches = list(tr.package_caches().values())
    tracer = tr.Tracer() if trace else None
    configs = [cli.RunConfig(command=c["command"], params=c["params"]) for c in calls]

    def one_pass(traced: bool) -> dict:
        ms, cpu_ms, codes, digests, outputs = [], [], [], [], {}
        t_pass, c_pass = time.perf_counter(), time.process_time()
        for i, config in enumerate(configs):
            for fn in caches:
                fn.cache_clear()
            t0, c0 = time.perf_counter(), time.process_time()
            code, output = cli.run(config)
            cpu_ms.append((time.process_time() - c0) * 1000.0)
            ms.append((time.perf_counter() - t0) * 1000.0)
            if traced:
                tracer.bank_cache_counts()
            codes.append(code)
            digests.append(hashlib.sha256(output).hexdigest())
            if calls[i]["oracle"] is not None or calls[i]["kind"] == "volkenborn":
                outputs[i] = output.decode()
        return {
            "wall_s": time.perf_counter() - t_pass,
            "cpu_s": time.process_time() - c_pass,
            "ms": ms,
            "cpu_ms": cpu_ms,
            "codes": codes,
            "digests": digests,
            "outputs": outputs,
        }

    passes = []
    result = {}
    start = time.perf_counter()
    if trace:
        passes.append(one_pass(False))
        tracer.install()
        traced = one_pass(True)
        tracer.uninstall()
        result["trace"] = tracer.snapshot()
        passes.append(traced)
    else:
        while not passes or time.perf_counter() - start < seconds:
            passes.append(one_pass(False))
    result["passes"] = passes
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _traced_cli(trace_out: str, argv: list[str]) -> int:
    from twisted_bernoulli import cli

    import tracer as tr

    tracer = tr.Tracer()
    tracer.install()
    # pool workers are forked from here; they run untraced
    os.register_at_fork(after_in_child=tracer.uninstall)
    code = cli.main(argv)
    tracer.bank_cache_counts()
    tracer.uninstall()
    snap = tracer.snapshot()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    snap["worker_cpu_s"] = usage.ru_utime + usage.ru_stime
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(snap, fh)
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        return _setup(argv[1])
    if mode == "calls":
        return _calls(argv[1], argv[2], float(argv[3]), argv[4] == "1")
    if mode == "cli":
        return _traced_cli(argv[1], argv[2:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
