"""One benchmark process: set up a workload, then measure or trace it.

Started by ``run.py`` with the BLAS/OpenMP thread variables pinned to 1.
Every mode first sets up (imports usproc from the checkout's ``src``, writes
the seed's inputs, makes one untimed warm-up run, checks its outputs) and
prints ``ready``; ``run.py`` times set-up up to that line.  Then:

* ``setup`` stops;
* ``measure`` repeats the pipeline for the given seconds, untraced, and
  checks the outputs after every rep; then it runs the pipeline once on the
  quality seed and checks the quality of those outputs (``check_quality``);
* ``trace`` makes one traced rep with tracemalloc on for allocation peaks,
  then alternates untraced and traced reps for the given seconds.

The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from usproc import cli  # noqa: E402
from usproc.errors import UsprocError  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3


class Bench:
    """A workload's inputs and output directory, and its reference outputs."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.inp = workdir / "inputs"
        self.out = workdir / "outputs"
        self.inp.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        self.truth = workload.make_inputs(self.inp, seed)
        self.argvs = workload.pipeline(self.inp, self.out, seed)
        self.reference = None
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def run(self) -> float:
        """Run the pipeline once; return its wall time."""
        gc.collect()
        self.codes = []
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = perf_counter()
            for argv in self.argvs:
                self.codes.append(cli.run(argv))
                if self.codes[-1] != 0:
                    break
            wall = perf_counter() - t0
        return wall

    def verify(self) -> bool:
        """Check the last run's exit codes and outputs; True if it failed.

        Every checked run counts in ``attempted``, and in ``failed`` if it
        failed.  The first run's output hashes become the reference for
        later runs.
        """
        problems = [f"{argv[0]} exited {code}"
                    for argv, code in zip(self.argvs, self.codes) if code != 0]
        hashes, bad = workloads.check_outputs(self.workload, self.out)
        problems += bad
        if self.reference is None:
            self.reference = hashes
        elif hashes != self.reference:
            changed = sorted(k for k in self.reference
                             if hashes.get(k) != self.reference[k])
            problems.append(f"output bytes differ from the first rep: {changed}")
        self.problems += problems
        self.attempted += 1
        self.failed += bool(problems)
        return bool(problems)


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")
                       or k == "VECLIB_MAXIMUM_THREADS"},
    }


def measure(bench: Bench, seconds: float) -> dict:
    times = []
    start = perf_counter()
    while len(times) < MIN_REPS or perf_counter() - start < seconds:
        times.append(bench.run())
        bench.verify()
    return {"times": times,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def trace(bench: Bench, seconds: float) -> dict:
    # Outputs are checked after each tracer is removed, so that the checks'
    # own reads leave no spans.
    with tracer.Tracer(memory=True) as mem:
        bench.run()
    bench.verify()
    peaks = tracer.layer_peaks(mem.spans)
    untraced, traced = [], []
    start = perf_counter()
    while len(traced) < MIN_REPS or perf_counter() - start < seconds:
        untraced.append(bench.run())
        bench.verify()
        with tracer.Tracer() as tr:
            wall = bench.run()
        bench.verify()
        traced.append((wall, tr.spans))
    # Report the traced rep with the median wall time, so that its layer
    # times add up to its wall time exactly.
    traced.sort(key=lambda item: item[0])
    wall, spans = traced[(len(traced) - 1) // 2]
    layers = tracer.layer_times(spans, wall)
    layers.update(peaks)
    layers["trace.overhead_s"] = wall - statistics.median(untraced)
    return {"layers": layers,
            "traced_times": [w for w, _ in traced], "untraced_times": untraced,
            "unbound": mem.unbound}


def quality(bench: Bench) -> dict:
    """Quality of the last run's outputs, by name with its unit."""
    try:
        values = bench.workload.quality(bench.truth, bench.out)
    except (UsprocError, ValueError, OSError, KeyError) as exc:
        bench.problems.append(f"quality not measurable: {exc!r}")
        return {}
    return {name: {"value": value, "unit": workloads.QUALITY_UNITS[name]}
            for name, value in values.items()}


def check_quality(bench: Bench, workdir: Path) -> dict:
    """Run the pipeline once on :data:`workloads.QUALITY_SEED` and check the
    quality of its outputs against the values the seed commit gives."""
    if "expected" not in bench.workload.p:
        return {}
    seed = workloads.QUALITY_SEED
    check = Bench(bench.workload, seed, workdir)
    check.run()
    values = {} if check.verify() else quality(check)
    if values:
        check.problems += bench.workload.quality_problems(
            {name: q["value"] for name, q in values.items()})
    bench.problems += [f"quality seed {seed}: {p}" for p in check.problems]
    bench.attempted += check.attempted
    bench.failed += check.failed
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = Bench(workloads.WORKLOADS[args.workload](args.size), args.seed,
                  args.workdir)
    bench.run()  # warm-up; its outputs are the reference for later reps
    warm_failed = bench.verify()
    print("ready", flush=True)

    result = {"fingerprint": bench.reference, "environment": environment(),
              "quality": {} if warm_failed else quality(bench),
              "checked_quality": {}}
    if args.mode == "measure":
        result.update(measure(bench, args.seconds))
        result["checked_quality"] = check_quality(bench, args.workdir / "check")
    elif args.mode == "trace":
        result.update(trace(bench, args.seconds))
    result.update(problems=bench.problems, attempted=bench.attempted,
                  failed=bench.failed)
    args.result.write_text(json.dumps(result), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
