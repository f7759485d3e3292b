"""switchq benchmark: one workload per process, closed loop with one caller.

    python3 perfbench/run.py --workload desk-table --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run times the workload for ``--seconds``
seconds and reports the end-to-end metrics.  With ``--trace 1`` it runs a
fixed pass of the workload twice, untraced and then traced, and reports the
per-layer metrics plus the tracing overhead; spans go to
``.perfbench_out/``.  Human-readable lines come first.  The line before the
last is every reported figure as one JSON object (name -> value, unit,
note); the last line is the result object.  A non-zero exit code, with no
result line, means the benchmark could not run at all.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported: one thread, steady timings

ROOT = Path(__file__).resolve().parent.parent
IMPORT_REPEATS = 3       # fresh interpreters that import the package, for setup_s
SETUP_REPEATS = 5        # generations from derived seeds, for setup_s
SETUP_SAMPLES = 10       # reference samples between set-up spans
MIN_INSTANCES = 20       # a run keeps going past --seconds until it has this many
MIN_EVALS = 100          # below this, time per evaluation is mostly per-instance set-up
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)

# name -> unit, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "policies_per_s": "1/s",
    "eval_us_p50": "us",
    "eval_us_tail": "us",
    "peak_rss_mb": "MB",
}


def _import_package():
    src = ROOT / "src"
    if not (src / "switchq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no switchq sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import switchq
    if Path(switchq.__file__).resolve().parent != (src / "switchq").resolve():
        sys.exit(f"perfbench: imported switchq from {switchq.__file__}, not from {src}")
    return switchq


# ---------------------------------------------------------------------------
# statistics


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile; NaN for no samples (every operation failed)."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)] if s else math.nan


def tail(xs: list[float]) -> tuple[float, float]:
    """(value, q) at the highest ladder percentile with >= 10 samples beyond it."""
    n = len(xs)
    for q in TAIL_LADDER:
        if n - math.ceil(q * n) >= 10:
            return percentile(xs, q), q
    return percentile(xs, 1.0), 1.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# running


def run_instances(wl, stream, cal, seconds=None, count=None):
    """Closed loop: each instance starts after the previous one returned.

    Runs ``count`` instances, or cycles through ``stream`` until ``seconds``
    have passed and at least MIN_INSTANCES are done.  Returns the outcomes,
    their times scaled (see ``scale_times``), and the wall time of the loop.
    """
    from workloads import Outcome
    outcomes = []
    cap = None if seconds is None else max(3 * seconds, seconds + 60)
    t0 = time.perf_counter()
    i = 0
    while count is None or i < count:
        outcome = Outcome(i, stream[i % len(stream)], cal)
        fresh_workspaces()
        wl.run(outcome)
        outcomes.append(outcome)
        i += 1
        elapsed = time.perf_counter() - t0
        if seconds is not None and ((elapsed >= seconds and i >= MIN_INSTANCES)
                                    or elapsed >= cap):
            break
    wall = time.perf_counter() - t0
    scale_times(outcomes, cal)
    return outcomes, wall


def fresh_workspaces():
    """Empties the evaluator's per-instance workspace cache, so that every
    instance pays for its workspace, as a caller with one instance does."""
    import switchq.core
    switchq.core._workspace.cache_clear()


def traced_pass(wl, stream, cal, count, tracer):
    """Runs each of the first ``count`` instances untraced, then traced, then
    replays its P1 walks; returns (untraced, traced) outcomes.

    Alternating keeps both runs of an instance at one machine speed, so
    their difference is the tracing overhead; both start with empty
    workspaces.
    """
    from workloads import Outcome
    plain, traced = [], []
    for i in range(count):
        before = Outcome(i, stream[i], cal)
        fresh_workspaces()
        wl.run(before)
        plain.append(before)
        outcome = Outcome(i, stream[i], cal)
        tracer.instance_id = i
        fresh_workspaces()
        tracer.install()
        try:
            wl.run(outcome)
        finally:
            tracer.uninstall()
        traced.append(outcome)
        tracer.replay_walks(cal.sample)
    scale_times(plain + traced, cal)
    return plain, traced


def scale_times(outcomes, cal):
    """Every operation's time, scaled by the reference samples around it.

    Each operation is preceded by a sample; this adds the one after the last.
    """
    cal.sample()
    for o in outcomes:
        o.seconds = {op: (b - a) * cal.scale(a, b) for op, (a, b) in o.spans.items()}


def check_all(wl, outcomes, oracles, cal=None):
    """(attempted, failed) operations; prints every failure to stderr.

    With a calibrator, samples it around every instance's checks, so that
    the oracle timings can be scaled.
    """
    attempted = failed = 0
    for o in outcomes:
        if cal is not None:
            cal.sample()
        attempted += len(wl.operations)
        bad = set(o.errors) | set(wl.check(o, oracles))
        failed += len(bad)
        for op in sorted(bad):
            detail = o.errors.get(op, "wrong answer\n")
            print(f"FAILED {wl.name} instance {o.index} {o.inst} {op}: {detail}",
                  file=sys.stderr, end="")
    if cal is not None:
        cal.sample()
    return attempted, failed


def import_times(cal):
    """Raw and scaled seconds from starting a fresh interpreter until it has
    imported the package, IMPORT_REPEATS times."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    raw, scaled = [], []
    cal.sample(SETUP_SAMPLES)
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import switchq"], env=env, check=True)
        t1 = time.perf_counter()
        cal.sample(SETUP_SAMPLES)
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * cal.scale(t0, t1))
    return raw, scaled


def setup(wl, seed, cal):
    """Set-up: package import plus instance generation.

    Returns (stream, raw s, scaled s, scaled import s, scaled generation s).
    Each part is the median of its repeats.  The generations draw from
    ``seed`` and from seeds derived from it, so the figure is the workload's
    typical set-up rather than the luck of one seed's rejection sampling;
    the stream is the one drawn from ``seed``.
    """
    imp_raw, imp_s = import_times(cal)
    raw, scaled = [], []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        drawn, _ = wl.instances(seed + k * 1_000_003)
        t1 = time.perf_counter()
        cal.sample(SETUP_SAMPLES)
        if k == 0:
            stream = drawn
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * cal.scale(t0, t1))
    if not stream:
        sys.exit(f"perfbench: seed {seed} gave no {wl.name} instances")
    imp, gen = statistics.median(imp_s), statistics.median(scaled)
    return (stream, statistics.median(imp_raw) + statistics.median(raw), imp + gen, imp, gen)


def report(details, name, value, unit, note=""):
    """Prints one figure and keeps it in ``details``."""
    details[name] = {"value": value, "unit": unit, "note": note}
    print(f"  {name:<22} {value:>14.6g} {unit:<5} {note}")


def per_eval_us(outcomes, n_distinct):
    """Scaled microseconds per evaluated policy, one figure per distinct
    instance (the median over its repeats), for instances with at least
    MIN_EVALS evaluations."""
    by_instance: dict[int, list[float]] = {}
    for o in outcomes:
        if o.evaluations >= MIN_EVALS:
            by_instance.setdefault(o.index % n_distinct, []).append(
                o.busy_s / o.evaluations * 1e6)
    return [statistics.median(v) for v in by_instance.values()]


def end_to_end(wl, seed, seconds):
    from calibrate import NOMINAL_S, Calibrator
    from workloads import Oracles
    cal = Calibrator()
    stream, setup_raw, setup_s, import_s, gen_s = setup(wl, seed, cal)
    outcomes, wall = run_instances(wl, stream, cal, seconds=seconds)
    rss = peak_rss_mb()
    attempted, failed = check_all(wl, outcomes, Oracles())

    raw = sum(o.raw_s for o in outcomes)
    busy = sum(o.busy_s for o in outcomes)
    evals = sum(o.evaluations for o in outcomes)
    per_eval = per_eval_us(outcomes, len(stream))
    ev_tail, ev_q = tail(per_eval)
    metrics = {
        "setup_s": setup_s,
        "policies_per_s": evals / busy if busy else math.nan,
        "eval_us_p50": percentile(per_eval, 0.5),
        "eval_us_tail": ev_tail,
        "peak_rss_mb": rss,
    }

    n = len(outcomes)
    print(f"{wl.name} seed {seed}: {n} instances ({len(stream)} distinct) in {wall:.3f} s, "
          f"closed loop, one caller")
    print(f"  times scaled to a reference loop of {NOMINAL_S * 1e3:g} ms; it took "
          f"{cal.median_s() * 1e3:.3f} ms here (median of {len(cal.took)})")
    details = {}
    report(details, "setup_s", setup_s, "s",
           f"median of {IMPORT_REPEATS} imports {import_s:.3f} s + median of {SETUP_REPEATS} "
           f"generations {gen_s:.3f} s; raw {setup_raw:.3f} s")
    report(details, "wall_s", wall, "s", f"timed phase, raw, n={n}")
    report(details, "policies_per_s", metrics["policies_per_s"], "1/s",
           f"{evals} policies; raw {evals / raw if raw else math.nan:.6g}")
    report(details, "eval_us_p50", metrics["eval_us_p50"], "us",
           f"per distinct instance with >= {MIN_EVALS} evaluations, n={len(per_eval)}")
    report(details, "eval_us_tail", ev_tail, "us", f"p{100 * ev_q:g}, n={len(per_eval)}")
    for label, op in (("prove", "alt-search-shave"), ("p1", "p1"), ("brute", "brute")):
        ms = [o.seconds[op] * 1e3 for o in outcomes if op in o.parts]
        if op not in wl.operations or not ms:
            continue
        value, q = tail(ms)
        report(details, f"{label}_ms_p50", percentile(ms, 0.5), "ms", f"n={len(ms)}")
        report(details, f"{label}_ms_tail", value, "ms", f"p{100 * q:g}, n={len(ms)}, "
               f"beyond it: {_families(outcomes, op, value)}")
    if "brute" in wl.operations:
        report(details, "brute_policies_per_s", metrics["policies_per_s"], "1/s", "")
    if "p1" in wl.operations and "alt-search-shave" in wl.operations:
        report(details, "p1_mre", _p1_mre(outcomes), "ratio", "P1 Wq over the proved optimum, mean")
    report(details, "fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} operations")
    report(details, "peak_rss_mb", rss, "MB", "ru_maxrss")
    return failed == 0, attempted, failed, metrics, END_TO_END, details


def _families(outcomes, op, cut):
    """S and N of the instances whose time exceeds cut, for the tail line."""
    fams = sorted({(o.inst.S, o.inst.N) for o in outcomes
                   if op in o.parts and o.seconds[op] * 1e3 > cut})
    return " ".join(f"S{s}/N{n}" for s, n in fams) or "-"


def _p1_mre(outcomes):
    rel = []
    for o in outcomes:
        if "p1" in o.parts and "alt-search-shave" in o.parts:
            opt = o.parts["alt-search-shave"].wq
            rel.append((o.parts["p1"].wq - opt) / opt if opt > 0 else 0.0)
    return sum(rel) / len(rel) if rel else float("nan")


def traced(wl, seed):
    from calibrate import Calibrator
    from layers import PER_LAYER, per_layer
    from tracer import Tracer
    from workloads import CONFIGS, Oracles, is_wide

    cal = Calibrator()
    tracer = Tracer(CONFIGS)
    tracer.install()
    try:
        cal.sample()
        t0 = time.perf_counter()
        stream, kept = wl.instances(seed)
        t1 = time.perf_counter()
        cal.sample()
    finally:
        tracer.uninstall()
    count = min(wl.trace_count, len(stream))
    plain, outcomes = traced_pass(wl, stream, cal, count, tracer)
    tracer.require(wl.spans)
    oracles = Oracles()
    attempted, failed = check_all(wl, outcomes, oracles, cal)
    plain_s = sum(o.busy_s for o in plain)
    traced_s = sum(o.busy_s for o in outcomes)
    columns = tracer.arrays(wide_ids={o.index for o in outcomes if is_wide(o.inst)})
    metrics = per_layer(tracer, columns, cal, outcomes, oracles,
                        generate_s=(t1 - t0) * cal.scale(t0, t1), kept=kept,
                        overhead_s=traced_s - plain_s, plain_wall=plain_s)
    out = ROOT / ".perfbench_out" / f"spans-{wl.name}-seed{seed}.npz"
    tracer.write(out, columns)
    print(f"{wl.name} seed {seed}: traced pass of {count} instances, {traced_s:.3f} s traced "
          f"against {plain_s:.3f} s untraced (scaled); {len(tracer.spans)} spans written to "
          f"{out.relative_to(ROOT)}")
    details = {}
    for name, unit in PER_LAYER.items():
        report(details, name, metrics[name], unit)
    return failed == 0, attempted, failed, metrics, PER_LAYER, details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_package()
    from workloads import WORKLOADS
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        ap.error(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    if args.trace:
        correct, attempted, failed, metrics, units, details = traced(wl, args.seed)
    else:
        correct, attempted, failed, metrics, units, details = end_to_end(
            wl, args.seed, args.seconds)
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }), flush=True)


if __name__ == "__main__":
    main()
