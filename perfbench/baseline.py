"""Record a baseline: every workload over several seeds, into BENCH_<n>.json.

    python3 perfbench/baseline.py --out perfbench/BENCH_1.json

Runs ``run.py`` for every workload of ``BENCHMARK.json``, untraced once per
seed 1-10 and traced once per seed 1-3, one run at a time, and writes for
every workload: each end-to-end metric's values, median, quartiles and
spread (quartile distance over the median), the quality metrics and output
SHA-256 digests per seed, and each per-layer metric's values and median
together with the layer's share of the traced wall time.  Comparing two
such files shows whether outputs changed (same digests) and by how much each
metric moved.  ``BENCH_1_set1.json`` and ``BENCH_1.json`` are two such sets,
one after the other, of the seed commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACE_SEEDS = [1, 2, 3]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])["details"]
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                     if not trace or k in ("trace.wall_s", "cli.self_s")),
          flush=True)
    return result


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (median, median, median)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    out = {"command": spec["command"], "run_seconds": seconds,
           "seeds": SEEDS, "trace_seeds": TRACE_SEEDS,
           "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        plain = [run(name, s, seconds, 0) for s in SEEDS]
        traced = [run(name, s, seconds, 1) for s in TRACE_SEEDS]
        out.setdefault("environment", plain[0]["details"]["environment"])
        entry = {
            "correct": all(r["correct"] for r in plain + traced),
            "attempted": sum(r["attempted"] for r in plain + traced),
            "failed": sum(r["failed"] for r in plain + traced),
            "end_to_end": {}, "quality": {}, "fingerprints": {},
            "per_layer": {}, "shares": {},
        }
        for m in spec["end_to_end"]:
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"],
                **summary([r["metrics"][m["name"]]["value"] for r in plain])}
        for q, info in plain[0]["details"]["quality"].items():
            entry["quality"][q] = {
                "unit": info["unit"],
                "values": [r["details"]["quality"][q]["value"] for r in plain]}
        for seed, r in zip(SEEDS, plain):
            entry["fingerprints"][str(seed)] = r["details"]["fingerprint"]
        for m in spec["per_layer"]:
            values = [r["metrics"][m["name"]]["value"] for r in traced]
            entry["per_layer"][m["name"]] = {
                "unit": units[m["name"]], "values": values,
                "median": statistics.median(values)}
        for m in spec["per_layer"]:
            if m["name"].endswith(".self_s"):
                shares = [r["metrics"][m["name"]]["value"]
                          / r["metrics"]["trace.wall_s"]["value"] for r in traced]
                if statistics.median(shares) >= 0.005:
                    entry["shares"][m["name"][:-len(".self_s")]] = round(
                        statistics.median(shares), 3)
        out["workloads"][name] = entry
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for name, entry in out["workloads"].items():
        print(name, {k: round(v["spread"], 4)
                     for k, v in entry["end_to_end"].items()}, entry["shares"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
