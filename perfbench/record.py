"""Run the benchmark over many seeds and record the baseline.

    python3 perfbench/record.py --seeds 1-10 [--out FILE]

Runs every workload of BENCHMARK.json for its run_seconds, once per seed,
each run a fresh process of ``run.py`` (one after another, never in
parallel).  For every workload and end-to-end metric this prints the median,
the quartiles and the spread (interquartile distance over the median) across
the seeds, and checks that the spread is below a third of the metric's bound.
It then runs the traced pass twice on the first seed and checks that every
per-layer count repeats exactly.  With ``--out`` the numbers, the environment
and the seeds are written as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = "perfbench/run.py"
HELD_OUT_SEED = 424242   # for later claims; never used while tuning


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"seed": seed, "elapsed_s": elapsed, "result": result, "report": report}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def environment(runs: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "runs": runs}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    count_names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]

    out = {"seed": seeds[0], "seeds": seeds, "held_out_seed": HELD_OUT_SEED,
           "run_seconds": seconds, "workloads": {}}
    runs = 0
    steady = True
    for workload in spec["workloads"]:
        name = workload["name"]
        rows = [run_once(name, seed, seconds, 0) for seed in seeds]
        runs += len(rows)
        entry = {"why": workload["why"], "seed": seeds[0], "end_to_end": {}, "report": {}}
        print(f"{name}: {len(rows)} runs, {statistics.median(r['elapsed_s'] for r in rows):.1f} s "
              "median per run")
        for metric, bound in bounds.items():
            s = summarize([r["result"]["metrics"][metric]["value"] for r in rows])
            s["unit"] = rows[0]["result"]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            mark = "ok" if (s["spread"] or 0) < bound / 3 else "WIDE"
            steady &= mark == "ok"
            print(f"  {metric:<16} median {s['median']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound {bound}, a third {bound / 3:.4f}) {mark}")
        for metric in rows[0]["report"]:
            values = [r["report"][metric]["value"] for r in rows if metric in r["report"]]
            entry["report"][metric] = {**summarize(values),
                                       "unit": rows[0]["report"][metric]["unit"]}
        entry["attempted"] = sum(r["result"]["attempted"] for r in rows)
        entry["failed"] = sum(r["result"]["failed"] for r in rows)
        print(f"  fail_ratio {entry['failed']}/{entry['attempted']}")
        first, again = (run_once(name, seeds[0], seconds, 1) for _ in range(2))
        runs += 2
        counts = {k: first["result"]["metrics"][k]["value"] for k in count_names}
        repeat = counts == {k: again["result"]["metrics"][k]["value"] for k in count_names}
        entry["per_layer"] = {k: v["value"] for k, v in first["result"]["metrics"].items()}
        entry["per_layer_counts_repeat"] = repeat
        print(f"  traced pass: per-layer counts repeat exactly: {repeat}")
        steady &= repeat
        out["workloads"][name] = entry
    out["environment"] = environment(runs)
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    print("steady" if steady else "NOT steady")


if __name__ == "__main__":
    main()
