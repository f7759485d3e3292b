"""Command line front end: evaluate, search, generate, benchmark.

Exit codes: 0 on success, 2 when the requested instance has no feasible
policy, 1 on usage or I/O errors.
"""

import argparse
import csv
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields
from pathlib import Path

from .core import (Instance, evaluate_b_wq, evaluate_closed_form, evaluate_direct,
                   is_feasible, max_backroom_policy)
from .heuristic import run_p1
from .instances import GenSpec, generate, read_instances, write_instances
from .policies import brute_force_optimum, policy_count
from .solver import STRATEGIES, SolverConfig, check_time_limit, solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

DEFAULT_CHECKPOINTS = (1.0, 5.0, 10.0, 50.0, 150.0, 500.0)
BENCH_METHODS = ("p1",) + STRATEGIES + ("hybrid",)
BRUTE_SUBSTITUTION_LIMIT = 100_000


class _CliError(Exception):
    """Usage or I/O problem that should end the run with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from exiting with its own code
        raise _CliError(message)


@dataclass
class SuiteRecord:
    """Outcome of one (instance, method) run."""

    instance_id: int
    method: str
    status: str
    wq: float | None
    proof: bool
    elapsed_s: float
    nodes: int
    evals: int


@dataclass
class TracePoint:
    """One incumbent improvement during a run."""

    instance_id: int
    method: str
    t_s: float
    wq: float


# ---------------------------------------------------------------------------
# benchmark machinery


def _run_pair(task: tuple[int, Instance, str, float]) -> tuple[SuiteRecord, list[TracePoint]]:
    idx, inst, method, time_limit = task
    t0 = time.perf_counter()
    if method == "p1":
        res = run_p1(inst, deadline=None if time_limit is None else t0 + time_limit)
        elapsed = time.perf_counter() - t0
        if res.status == "infeasible":
            return SuiteRecord(idx, method, "infeasible", None, False, elapsed, 0,
                               res.steps), []
        status = "timeout-with-incumbent" if res.status == "timeout" else "feasible"
        rec = SuiteRecord(idx, method, status, res.wq, False, elapsed, 0, res.steps)
        return rec, [TracePoint(idx, method, elapsed, res.wq)]
    cfg = SolverConfig(strategy="alt-search-shave" if method == "hybrid" else method,
                       hybrid=method == "hybrid", time_limit=time_limit)
    res = solve(inst, cfg)
    elapsed = time.perf_counter() - t0
    rec = SuiteRecord(idx, method, res.status, res.wq, res.proof, elapsed,
                      res.stats.nodes, res.stats.evaluations)
    points = [TracePoint(idx, method, t, wq) for t, wq in res.incumbent_trace]
    return rec, points


def run_suite(instances, methods, time_limit, workers: int = 1
              ) -> tuple[list[SuiteRecord], list[TracePoint]]:
    """Run every method on every instance; collection order is deterministic."""
    check_time_limit(time_limit)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    for m in methods:
        if m not in BENCH_METHODS:
            raise ValueError(f"unknown method {m!r}; pick from {BENCH_METHODS}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"methods must not repeat, got {', '.join(methods)}")
    tasks = [(idx, inst, m, time_limit)
             for idx, inst in enumerate(instances) for m in methods]
    # a pool starts all its workers at once, so never more than there are tasks
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_pair, tasks))
    else:
        results = [_run_pair(t) for t in tasks]
    records = [rec for rec, _ in results]
    traces = [pt for _, pts in results for pt in pts]
    return records, traces


def best_known_table(instances, records) -> dict[int, float]:
    """Best wait per instance: minimum observed, sharpened by brute force
    wherever the policy space is small enough to enumerate."""
    table: dict[int, float] = {}
    for rec in records:
        if rec.wq is not None and (rec.instance_id not in table or rec.wq < table[rec.instance_id]):
            table[rec.instance_id] = rec.wq
    for idx, inst in enumerate(instances):
        if policy_count(inst) <= BRUTE_SUBSTITUTION_LIMIT:
            found = brute_force_optimum(inst)
            if found is not None and (idx not in table or found[1] < table[idx]):
                table[idx] = found[1]
    return table


def mre(costs: dict[int, float], best: dict[int, float]) -> float:
    """Mean relative excess of costs over the best-known values.

    Instances missing from either table, or with a nonpositive best value,
    are left out of the mean.
    """
    terms = [(costs[i] - best[i]) / best[i]
             for i in best if i in costs and best[i] > 0]
    if not terms:
        return 0.0
    return sum(terms) / len(terms)


def incumbent_at(points: list[TracePoint], t: float) -> float | None:
    """Last incumbent wait recorded at or before elapsed time t."""
    wq = None
    for pt in points:
        if pt.t_s <= t:
            wq = pt.wq
    return wq


def mre_curve(instances, methods, traces, best, checkpoints
              ) -> dict[str, list[tuple[float, float]]]:
    """Anytime quality per method: MRE at each checkpoint.

    An instance with no incumbent yet contributes the all-late policy's wait,
    the starting point every method shares.
    """
    fallback = {idx: evaluate_b_wq(inst, max_backroom_policy(inst))[1]
                for idx, inst in enumerate(instances)}
    by_pair: dict[tuple[int, str], list[TracePoint]] = {}
    for pt in traces:
        by_pair.setdefault((pt.instance_id, pt.method), []).append(pt)
    curve: dict[str, list[tuple[float, float]]] = {}
    for m in methods:
        row = []
        for t in checkpoints:
            costs = {}
            for idx in range(len(instances)):
                wq = incumbent_at(by_pair.get((idx, m), []), t)
                costs[idx] = fallback[idx] if wq is None else wq
            row.append((t, mre(costs, best)))
        curve[m] = row
    return curve


# ---------------------------------------------------------------------------
# CSV round trip


def _write_rows(path, cls, rows) -> None:
    """One header of cls's field names, then one line per dataclass row;
    csv writes floats by repr and None as an empty cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(f.name for f in fields(cls))
        w.writerows(map(astuple, rows))


def _read_rows(path, cls) -> list:
    """The rows _write_rows wrote, each cell turned back by its field's annotation."""
    cell = {int: int, float: float, str: str, bool: lambda c: c == "True",
            float | None: lambda c: float(c) if c else None}
    with open(path, newline="") as fh:
        return [cls(**{f.name: cell[f.type](row[f.name]) for f in fields(cls)})
                for row in csv.DictReader(fh)]


def write_records(path, records) -> None:
    _write_rows(path, SuiteRecord, records)


def read_records(path) -> list[SuiteRecord]:
    return _read_rows(path, SuiteRecord)


def write_trace_points(path, points) -> None:
    _write_rows(path, TracePoint, points)


def read_trace_points(path) -> list[TracePoint]:
    return _read_rows(path, TracePoint)


def trace_path(out_csv) -> Path:
    p = Path(out_csv)
    return p.with_name(p.stem + "_trace" + p.suffix)


# ---------------------------------------------------------------------------
# subcommands


def _load_instance(path: str, index: int) -> Instance:
    insts = read_instances(path)
    if not 0 <= index < len(insts):
        raise _CliError(f"index {index} out of range; file holds {len(insts)} instances")
    return insts[index]


def _parse_policy(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _CliError(f"bad policy {text!r}; expected comma-separated integers") from None


def _fmt_policy(pol) -> str:
    return ",".join(str(v) for v in pol)


def _cmd_eval(args) -> int:
    inst = _load_instance(args.instance_file, args.index)
    pol = _parse_policy(args.policy)
    evaluator = evaluate_direct if args.method == "direct" else evaluate_closed_form
    m = evaluator(inst, pol)
    print(f"policy {_fmt_policy(pol)}")
    for name, value in (("F", m.F), ("B", m.B), ("L", m.L), ("Wq", m.Wq),
                        ("pBlock", m.pBlock)):
        print(f"{name} {value!r}")
    print(f"feasible {'yes' if is_feasible(m, inst) else 'no'}")
    return EXIT_OK


def _cmd_heuristic(args) -> int:
    inst = _load_instance(args.instance_file, args.index)
    res = run_p1(inst, trace=args.trace)
    if args.trace:
        for st in res.trace:
            print(f"{_fmt_policy(st.policy)} B={st.B!r} Wq={st.Wq!r} {st.action}")
    if res.status == "infeasible":
        print("infeasible")
        return EXIT_INFEASIBLE
    print(f"policy {_fmt_policy(res.policy)}")
    print(f"Wq {res.wq!r}")
    print(f"evaluations {res.steps}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance_file, args.index)
    cfg = SolverConfig(strategy=args.strategy, hybrid=args.hybrid,
                       time_limit=args.time_limit)
    res = solve(inst, cfg)
    if res.status == "infeasible":
        print("infeasible")
        return EXIT_INFEASIBLE
    print(f"status {res.status}")
    print(f"policy {_fmt_policy(res.incumbent)}")
    print(f"Wq {res.wq!r}")
    print(f"proof {'yes' if res.proof else 'no'}")
    print(f"nodes {res.stats.nodes}")
    print(f"shave_iterations {res.stats.shave_iterations}")
    print(f"evaluations {res.stats.evaluations}")
    return EXIT_OK


def _cmd_brute(args) -> int:
    inst = _load_instance(args.instance_file, args.index)
    found = brute_force_optimum(inst)
    if found is None:
        print("infeasible")
        return EXIT_INFEASIBLE
    pol, wq = found
    print(f"policy {_fmt_policy(pol)}")
    print(f"Wq {wq!r}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    try:
        s_values = tuple(int(part) for part in args.s.split(","))
    except ValueError:
        raise _CliError(f"bad capacity list {args.s!r}") from None
    spec = GenSpec(s_values=s_values, per_s_count=args.count, seed=args.seed)
    insts = generate(spec)
    write_instances(args.out, insts)
    print(f"wrote {len(insts)} instances to {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    # fail before the rows run, not on the write after them
    out_dir = Path(args.out_csv).parent
    if not out_dir.is_dir():
        raise _CliError(f"output directory {out_dir} does not exist")
    insts = read_instances(args.instance_file)
    methods = tuple(part.strip() for part in args.methods.split(",") if part.strip())
    if not methods:
        raise _CliError("no methods given")
    try:
        checkpoints = tuple(float(part) for part in args.checkpoints.split(",")) \
            if args.checkpoints is not None else DEFAULT_CHECKPOINTS
    except ValueError:
        raise _CliError(f"bad checkpoints list {args.checkpoints!r}") from None
    if not all(t >= 0.0 for t in checkpoints):  # NaN fails this too
        raise _CliError(f"checkpoints must be nonnegative numbers of seconds, "
                        f"got {args.checkpoints!r}")
    records, traces = run_suite(insts, methods, args.time_limit, args.workers)
    write_records(args.out_csv, records)
    write_trace_points(trace_path(args.out_csv), traces)
    best = best_known_table(insts, records)
    curve = mre_curve(insts, methods, traces, best, checkpoints)
    print(f"wrote {len(records)} records to {args.out_csv}")
    print(f"wrote {len(traces)} trace points to {trace_path(args.out_csv)}")
    header = "method".ljust(18) + "".join(f"mre@{t:g}s".rjust(14) for t in checkpoints)
    print(header)
    for m in methods:
        row = m.ljust(18) + "".join(f"{v:14.6g}" for _, v in curve[m])
        print(row)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="switchq",
                     description="worker-switching policies: evaluate, search, benchmark")
    sub = parser.add_subparsers(dest="command", required=True)
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--instance-file", required=True)
    instance.add_argument("--index", type=int, required=True)

    p = sub.add_parser("eval", parents=[instance], help="evaluate one policy on one instance")
    p.add_argument("--policy", required=True,
                   help="comma-separated switching points ending in S, e.g. 0,1,2,6")
    p.add_argument("--method", choices=("direct", "closed"), default="direct")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("heuristic", parents=[instance], help="run the switching heuristic")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_heuristic)

    p = sub.add_parser("solve", parents=[instance], help="search for a provably optimal policy")
    p.add_argument("--strategy", required=True, choices=STRATEGIES)
    p.add_argument("--hybrid", action="store_true")
    p.add_argument("--time-limit", type=float, default=600.0, metavar="SECONDS")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("brute", parents=[instance], help="enumerate the whole policy space")
    p.set_defaults(func=_cmd_brute)

    p = sub.add_parser("generate", help="draw benchmark instances")
    p.add_argument("--s", required=True, help="comma-separated capacities, e.g. 10,20,30")
    p.add_argument("--count", type=int, required=True, help="instances per capacity")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="run methods over an instance file")
    p.add_argument("--instance-file", required=True)
    p.add_argument("--methods", required=True,
                   help=f"comma-separated subset of {','.join(BENCH_METHODS)}")
    p.add_argument("--time-limit", type=float, required=True, metavar="SECONDS")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoints", default=None,
                   help="comma-separated seconds, default 1,5,10,50,150,500")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    # the package rejects bad input with ValueError, the CLI with _CliError
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (_CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
