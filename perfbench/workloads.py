"""The benchmark's workloads: how each draws its instances from a seed, the
operation it times on every instance, and the oracle checks on the answers.

Every workload draws with ``switchq.generate(GenSpec(...))``; the package
receives only the generated instances.  Instances are interleaved across
capacities so that a run cut short by its time budget still sees every
capacity in equal measure.
"""

import math
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field

import switchq
from switchq import (EPS_B, STRATEGIES, GenSpec, Instance, SolverConfig,
                     evaluate_closed_form, evaluate_direct, policy_count,
                     validate_policy)
from switchq.solver import EPS_WQ

CONFIGS = STRATEGIES + ("hybrid",)
DESK_S = (10, 12, 14, 16, 18)
TALL_S = (60, 80, 100)
ORACLE_TOL = 1e-9       # criterion 5: oracle agreement on ordinary instances
ORACLE_TOL_LOG = 1e-6   # criterion 5: looser where the closed forms go through logs
WIDE_LIMIT = 600.0      # S * ln(lam/mu) above this: evaluate_b_wq leaves the vectorized route
WIDE_MAX_N = 12         # keeps one wide walk near a second, so a run sees 20 of them


def is_wide(inst: Instance) -> bool:
    return inst.lam > inst.mu and inst.S * math.log(inst.lam / inst.mu) > WIDE_LIMIT


def solver_config(label: str) -> SolverConfig:
    """The table's configurations, with no time limit in effect."""
    if label == "hybrid":
        return SolverConfig(strategy="alt-search-shave", hybrid=True, time_limit=None)
    return SolverConfig(strategy=label, time_limit=None)


def close(a: float, b: float, tol: float) -> bool:
    """Closeness relative to the larger magnitude, absolute below one."""
    return a == b or abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@dataclass
class Outcome:
    """One instance pushed through the workload's operations."""

    index: int
    inst: Instance
    cal: object = None                        # Calibrator, sampled before every operation
    evaluations: int = 0                      # policies evaluated to get the answers
    parts: dict = field(default_factory=dict)   # operation -> result
    errors: dict = field(default_factory=dict)  # operation -> traceback
    spans: dict = field(default_factory=dict)   # operation -> (start, end) perf_counter
    seconds: dict = field(default_factory=dict)  # operation -> scaled seconds, set after the run

    @property
    def raw_s(self) -> float:
        return sum(t1 - t0 for t0, t1 in self.spans.values())

    @property
    def busy_s(self) -> float:
        return sum(self.seconds.values())


class Oracles:
    """The two independent evaluators, with each call's (start, end) kept."""

    def __init__(self):
        self.calls: dict[str, list[tuple[float, float]]] = {"direct": [], "closed": []}

    def _timed(self, name, fn, inst, pol):
        t0 = time.perf_counter()
        m = fn(inst, pol)
        self.calls[name].append((t0, time.perf_counter()))
        return m

    def direct(self, inst, pol):
        return self._timed("direct", evaluate_direct, inst, pol)

    def closed(self, inst, pol):
        return self._timed("closed", evaluate_closed_form, inst, pol)


def _oracle_agrees(oracles: Oracles, inst: Instance, pol, wq: float) -> bool:
    """The policy is valid and feasible, and both oracles reproduce its Wq."""
    try:
        validate_policy(inst, pol)
    except ValueError:
        return False
    tol = ORACLE_TOL_LOG if is_wide(inst) else ORACLE_TOL
    md = oracles.direct(inst, pol)
    mc = oracles.closed(inst, pol)
    return (md.B >= inst.Bl - EPS_B and close(md.Wq, wq, tol) and close(mc.Wq, wq, tol))


# ---------------------------------------------------------------------------
# timed operations; each fills outcome.parts and outcome.evaluations


def _timed(outcome: Outcome, name: str, call: Callable[[], object]):
    if outcome.cal is not None:
        outcome.cal.sample()
    t0 = time.perf_counter()
    try:
        res = call()
    except Exception:  # a raising operation is a failed operation, not the end of the run
        outcome.spans[name] = (t0, time.perf_counter())
        outcome.errors[name] = traceback.format_exc()
        return None
    outcome.spans[name] = (t0, time.perf_counter())
    if res is not None:
        outcome.parts[name] = res
    return res


def _walk(outcome: Outcome) -> None:
    res = _timed(outcome, "p1", lambda: switchq.run_p1(outcome.inst))
    if res is not None:
        outcome.evaluations += res.steps
        res.trace.clear()  # the checks need none of it; keeping it would swell peak RSS


def run_table(outcome: Outcome) -> None:
    inst = outcome.inst
    for label in CONFIGS:
        res = _timed(outcome, label, lambda: switchq.solve(inst, solver_config(label)))
        if res is not None:
            outcome.evaluations += res.stats.evaluations
    _walk(outcome)


def run_brute(outcome: Outcome) -> None:
    inst = outcome.inst
    if _timed(outcome, "brute", lambda: switchq.brute_force_optimum(inst)) is not None:
        outcome.evaluations += policy_count(inst)




# ---------------------------------------------------------------------------
# checks; each returns the names of the operations whose answer is wrong


def check_table(outcome: Outcome, oracles: Oracles) -> list[str]:
    inst = outcome.inst
    bad = []
    ref = outcome.parts.get("alt-search-shave")
    for label in CONFIGS:
        res = outcome.parts.get(label)
        ok = (res is not None and ref is not None and res.status == "optimal" and res.proof
              and res.incumbent is not None and close(res.wq, ref.wq, EPS_WQ)
              and _oracle_agrees(oracles, inst, res.incumbent, res.wq))
        if not ok:
            bad.append(label)
    p1 = outcome.parts.get("p1")
    ok = (p1 is not None and ref is not None and p1.status == "solved"
          and p1.wq >= ref.wq - EPS_WQ * max(1.0, abs(ref.wq))
          and _oracle_agrees(oracles, inst, p1.policy, p1.wq))
    if not ok:
        bad.append("p1")
    return bad


def check_brute(outcome: Outcome, oracles: Oracles) -> list[str]:
    inst = outcome.inst
    found = outcome.parts.get("brute")
    if found is None:
        return ["brute"]
    pol, wq = found
    proved = switchq.solve(inst, solver_config("alt-search-shave"))
    ok = (_oracle_agrees(oracles, inst, pol, wq) and proved.status == "optimal"
          and close(proved.wq, wq, EPS_WQ))
    return [] if ok else ["brute"]


def check_walk(outcome: Outcome, oracles: Oracles) -> list[str]:
    res = outcome.parts.get("p1")
    ok = (res is not None and res.status == "solved"
          and _oracle_agrees(oracles, outcome.inst, res.policy, res.wq))
    return [] if ok else ["p1"]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    s_values: tuple[int, ...]
    per_s_count: int
    run: Callable[[Outcome], None]
    check: Callable[[Outcome, Oracles], list[str]]
    operations: tuple[str, ...]      # operations per instance, each attempted once
    trace_count: int                 # instances in the traced pass
    spans: tuple[str, ...]           # span names the traced pass must produce
    keep: Callable[[Instance], bool] = lambda inst: True

    def instances(self, seed: int, per_s_count: int | None = None) -> tuple[list, int]:
        """(workload instances interleaved across capacities, generator's kept count)."""
        spec = GenSpec(self.s_values, per_s_count or self.per_s_count, seed)
        drawn = switchq.generate(spec)
        by_s: dict[int, list] = {}
        for inst in drawn:
            if self.keep(inst):
                by_s.setdefault(inst.S, []).append(inst)
        rows = list(by_s.values())
        out = [row[i] for i in range(max(map(len, rows), default=0)) for row in rows
               if i < len(row)]
        return out, len(drawn)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk-table",
        why="the paper's comparison table: five strategies, hybrid and P1 on S 10-18; "
            "the only workload where the solver does most of the work",
        s_values=DESK_S, per_s_count=50, run=run_table, check=check_table,
        operations=CONFIGS + ("p1",), trace_count=40,
        spans=("b_wq", "search", "bl_shave", "wq_shave", "alternating_shave",
               "hybrid_p1", "probe", "solve", "run_p1")),
    Workload(
        name="brute-judge",
        why="brute force on desk instances: direct recursion only, bypassing "
            "evaluate_b_wq, solver and heuristic; control for evaluator work",
        s_values=DESK_S, per_s_count=60, run=run_brute, check=check_brute,
        operations=("brute",), trace_count=40, spans=("probe", "brute")),
    Workload(
        name="tall-walk",
        why="P1 alone on S 60-100, where instances cannot be proved in time; "
            "bookkeeping-bound walk, the criterion 8 family",
        s_values=TALL_S, per_s_count=100, run=_walk, check=check_walk,
        operations=("p1",), trace_count=150, spans=("probe", "run_p1")),
    Workload(
        name="wide-walk",
        why="P1 on S 300 with S*ln(lam/mu) > 600: evaluate_b_wq's pure-Python "
            "closed-form fallback, numerics-bound",
        s_values=(300,), per_s_count=150, run=_walk, check=check_walk,
        operations=("p1",), trace_count=8, spans=("probe", "run_p1"),
        keep=lambda inst: is_wide(inst) and inst.N <= WIDE_MAX_N),
)}
