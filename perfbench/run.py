"""usproc benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload bmode-demo --seed 1 --seconds 15 --trace 0

Run from anywhere; the usproc sources are taken from ``src/`` next to this
directory.  With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``
are measured untraced:

* ``setup_s``: median, over three fresh processes, of the time from process
  start to the end of set-up (import usproc, write the seed's inputs, one
  untimed warm-up run, check its outputs);
* ``wall_s``: median wall time of one full pipeline run (every CLI call of
  the workload), repeated for ``--seconds`` in the last of those processes;
* ``peak_rss_mb``: peak resident memory of that process, which runs only
  this workload.

With ``--trace 1`` the per-layer metrics are taken in a separate process that
wraps each layer's public functions (see ``tracer.py``).

Every pipeline runs with ``--threads 1`` and the BLAS/OpenMP thread variables
set to 1.  After every run the exit codes are checked and each expected output
must exist, parse with usproc's readers, be finite and match the first run's
bytes; the three processes must produce the same bytes as well.  The
measuring process then runs the pipeline once on a fixed quality seed, whose
quality metrics may be at most 10% worse than at the seed commit.  Quality
metrics and SHA-256 fingerprints of the outputs are printed as well.  The last
line of standard output is the result as one JSON object; the line before it
holds the details (environment, samples, quality, fingerprints, problems).
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass, field
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bmode-demo", "sa-das", "flow-rpca", "ulm-sparse")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
PINNED_ENV = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not produce a result."""


@dataclass
class Outcome:
    """What one benchmark mode measured, ready to print."""

    values: dict          # metric name -> value
    worker: dict          # result of the worker that measured
    problems: list
    attempted: int
    failed: int
    lines: list = field(default_factory=list)    # human-readable report
    details: dict = field(default_factory=dict)  # extra JSON details


def spawn(mode: str, index: int, args, workdir: Path, deadline: float):
    """Run one worker; return (seconds from start to set-up done, result)."""
    tag = f"{mode}-{index}"
    result_path = workdir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--size", args.size,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", str(workdir / tag), "--result", str(result_path)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               **PINNED_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the run finished")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline().strip() == "ready"
        setup = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or not ready or not result_path.is_file():
        raise BenchError(f"{mode} worker exited with code {code}")
    return setup, json.loads(result_path.read_text(encoding="ascii"))


def end_to_end(args, workdir: Path, deadline: float) -> Outcome:
    runs = [spawn("setup", i, args, workdir, deadline)
            for i in range(SETUP_SAMPLES - 1)]
    runs.append(spawn("measure", 0, args, workdir, deadline))
    setups = [setup for setup, _ in runs]
    results = [result for _, result in runs]
    measured = results[-1]
    problems = list(dict.fromkeys(p for r in results for p in r["problems"]))
    if any(r["fingerprint"] != measured["fingerprint"] for r in results):
        problems.append("output bytes differ between processes")
    times = measured["times"]
    values = {"wall_s": statistics.median(times),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": measured["peak_rss_mb"]}
    lines = [
        f"wall_s = {values['wall_s']:.4f} s  (median of n={len(times)} runs; "
        f"min {min(times):.4f}, max {max(times):.4f})",
        f"setup_s = {values['setup_s']:.4f} s  (median of "
        f"{len(setups)} fresh processes: "
        + ", ".join(f"{s:.3f}" for s in setups) + ")",
        f"peak_rss_mb = {values['peak_rss_mb']:.2f} MB  (peak RSS of the "
        "measuring process)",
    ]
    return Outcome(values, measured, problems,
                   sum(r["attempted"] for r in results),
                   sum(r["failed"] for r in results), lines,
                   {"wall_s_samples": times, "setup_s_samples": setups})


def traced(args, workdir: Path, deadline: float) -> Outcome:
    _, result = spawn("trace", 0, args, workdir, deadline)
    lines = [f"traced runs: {len(result['traced_times'])}, untraced runs: "
             f"{len(result['untraced_times'])}, layers from the traced run "
             "with the median wall time"]
    if result["unbound"]:
        lines.append("not found, so not traced: " + ", ".join(result["unbound"]))
    details = {"traced_wall_s_samples": result["traced_times"],
               "untraced_wall_s_samples": result["untraced_times"],
               "unbound": result["unbound"]}
    return Outcome(result["layers"], result, result["problems"],
                   result["attempted"], result["failed"], lines, details)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: the self-test's quick sizes")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "usproc" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"perfbench: no usproc sources or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    deadline = time.monotonic() + DEADLINE_S
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        out = (traced if args.trace else end_to_end)(args, workdir, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in out.values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": out.values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    worker = out.worker
    failed_frac = out.failed / out.attempted

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"size={args.size} trace={args.trace} seconds={args.seconds}")
    print("environment: " + " ".join(
        f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}"
        for k, v in worker["environment"].items()))
    for line in out.lines:
        print(line)
    if args.trace:
        for m in wanted:
            print(f"{m['name']} = {out.values[m['name']]:.6g} {m['unit']}")
    print(f"failed_frac = {failed_frac:.4g} ratio  "
          f"({out.failed} of {out.attempted} runs failed)")
    for name, q in worker["quality"].items():
        print(f"{name} = {q['value']:.6g} {q['unit']}")
    for name, q in worker["checked_quality"].items():
        print(f"{name} (quality seed) = {q['value']:.6g} {q['unit']}")
    for rel, digest in sorted(worker["fingerprint"].items()):
        print(f"sha256 {rel} {digest}")
    for problem in out.problems:
        print(f"problem: {problem}")

    out.details.update({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "environment": worker["environment"], "failed_frac": failed_frac,
        "quality": worker["quality"],
        "checked_quality": worker["checked_quality"],
        "fingerprint": worker["fingerprint"],
        "problems": out.problems})
    print(json.dumps({"details": out.details}))
    print(json.dumps({"correct": not out.problems and out.failed == 0,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
