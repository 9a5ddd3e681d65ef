"""Self-test of the benchmark at the tiny size.

    python3 perfbench/self_test.py

Runs every workload once untraced and once traced and checks that:

* each run is correct, fails nothing, and its last line holds exactly the
  keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
* the metrics are exactly the ``end_to_end`` (untraced) or ``per_layer``
  (traced) metrics of ``BENCHMARK.json``, with their units, and finite; the
  end-to-end ones are above 0;
* the quality metrics ``provenance.json`` lists for a workload are reported
  with their units, and the output fingerprints are SHA-256 digests;
* a traced run has self time in exactly the layers ``provenance.json`` lists
  for the workload, and its layer self times plus ``cli.self_s`` add up to
  ``trace.wall_s``;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check_run(spec, prov, workload: str, trace: int) -> list[str]:
    where = f"{workload} trace={trace}"
    code, lines, stderr = bench(ROOT, workload, trace)
    if code != 0 or len(lines) < 2:
        return [f"{where}: exit {code}: {stderr.strip()[-500:]}"]
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])["details"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 \
            or not result.get("attempted", 0) >= 1:
        errors.append(f"not a clean run: {lines[-1][:200]} {details['problems']}")

    metrics = result.get("metrics", {})
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != wanted:
        errors.append(f"metrics differ from BENCHMARK.json: missing "
                      f"{sorted(set(wanted) - set(got))}, extra "
                      f"{sorted(set(got) - set(wanted))}, units "
                      f"{sorted(n for n in wanted if got.get(n, wanted[n]) != wanted[n])}")
    values = {name: m.get("value") for name, m in metrics.items()}
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name} is not a finite number: {value!r}")
        elif not trace and value <= 0:
            errors.append(f"{name} is not above 0: {value!r}")

    info = prov["workloads"][workload]
    quality = {name: q.get("unit") for name, q in details["quality"].items()}
    if quality != info["quality"]:
        errors.append(f"quality metrics {quality} != {info['quality']}")
    fingerprint = details["fingerprint"]
    if not fingerprint or not all(re.fullmatch(r"[0-9a-f]{64}", d)
                                  for d in fingerprint.values()):
        errors.append(f"bad fingerprints {fingerprint}")

    if trace and not errors:
        layers = [name[:-len(".self_s")] for name in wanted
                  if name.endswith(".self_s") and name != "cli.self_s"]
        busy = {layer for layer in layers if values[f"{layer}.self_s"] > 0}
        if busy != set(info["layers"]):
            errors.append(f"layers with self time {sorted(busy)} != "
                          f"provenance {sorted(info['layers'])}")
        total = sum(values[f"{layer}.self_s"] for layer in layers) \
            + values["cli.self_s"]
        if not math.isclose(total, values["trace.wall_s"], rel_tol=1e-9):
            errors.append(f"self times add up to {total}, not to "
                          f"trace.wall_s {values['trace.wall_s']}")
    return [f"{where}: {e}" for e in errors]


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        code, lines, _ = bench(bare, "bmode-demo", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if code == 0 or any('"correct"' in line for line in lines):
        return [f"bare directory: exit {code} with output {lines[-1:]}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    prov = json.loads((HERE / "provenance.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if names != list(prov["workloads"]):
        print(f"FAIL workloads {names} != provenance {list(prov['workloads'])}")
        return 1
    errors = []
    for workload in names:
        for trace in (0, 1):
            found = check_run(spec, prov, workload, trace)
            print(f"{'FAIL' if found else 'ok  '} {workload} trace={trace}",
                  flush=True)
            errors += found
    found = check_bare_directory()
    print(f"{'FAIL' if found else 'ok  '} bare directory exits non-zero")
    errors += found
    for error in errors:
        print(error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
