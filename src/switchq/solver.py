"""Optimality search: domain shaving plus depth-first branch and bound.

The solver keeps a box of integer domains, one range per movable switching
point.  Corner completions bound what the box can hold: completing every free
variable downward gives the smallest waiting time in the box, completing
upward gives the largest back-room coverage.  Probing one variable at an end
of its domain and completing the rest therefore either proves that end value
useless (a shave) or produces a feasible policy worth recording.  Search
branches over the shaved box with the same corner bounds as pruning rules,
optionally tightened by dominance cuts derived from incumbents.
"""

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

from .core import (EPS_B, Instance, Policy, evaluate_b_wq, max_backroom_policy,
                   min_wait_policy, validate_instance)
from .heuristic import run_p1

EPS_WQ = 1e-9

STRATEGIES = ("none", "bl-shave", "wq-shave", "alt-shave", "alt-search-shave")


class SolveTimeout(Exception):
    """Internal signal: the configured deadline passed."""


class _Improved(Exception):
    """Internal signal: search found a better incumbent and should restart."""


@dataclass
class DomainStore:
    """Integer ranges for the movable switching points k_0..k_{N-1}.

    Shrinking either end re-normalizes the box so lo stays strictly
    increasing and hi strictly increasing with unit gaps available; an empty
    range marks the store failed.
    """

    lo: list[int]
    hi: list[int]
    failed: bool = False

    @classmethod
    def initial(cls, inst: Instance) -> "DomainStore":
        n, s = inst.N, inst.S
        return cls(lo=list(range(n)), hi=[s - n + i for i in range(n)])

    def copy(self) -> "DomainStore":
        return DomainStore(list(self.lo), list(self.hi), self.failed)

    def snapshot(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(self.lo), tuple(self.hi)

    def contains(self, pol: Policy) -> bool:
        return all(self.lo[i] <= pol[i] <= self.hi[i] for i in range(len(self.lo)))

    def shrink_hi(self, i: int, new_hi: int) -> None:
        if new_hi < self.hi[i]:
            self.hi[i] = new_hi
            self._normalize()

    def raise_lo(self, i: int, new_lo: int) -> None:
        if new_lo > self.lo[i]:
            self.lo[i] = new_lo
            self._normalize()

    def _normalize(self) -> None:
        n = len(self.lo)
        for i in range(1, n):
            if self.lo[i] < self.lo[i - 1] + 1:
                self.lo[i] = self.lo[i - 1] + 1
        for i in range(n - 2, -1, -1):
            if self.hi[i] > self.hi[i + 1] - 1:
                self.hi[i] = self.hi[i + 1] - 1
        if any(self.lo[i] > self.hi[i] for i in range(n)):
            self.failed = True


@dataclass
class SearchStats:
    nodes: int = 0
    shave_iterations: int = 0
    evaluations: int = 0


@dataclass
class Incumbent:
    """Best feasible policy seen so far, with an update hook."""

    policy: Policy | None = None
    wq: float = math.inf
    on_update: Callable[[Policy, float], None] | None = None

    def consider(self, pol: Policy, wq: float, eps: float = EPS_WQ) -> bool:
        if wq < self.wq - eps:
            self.policy, self.wq = pol, wq
            if self.on_update is not None:
                self.on_update(pol, wq)
            return True
        return False


@dataclass
class SolverConfig:
    strategy: str = "alt-search-shave"
    dominance: bool = False
    hybrid: bool = False
    time_limit: float | None = 600.0
    eps_b: float = EPS_B
    eps_wq: float = EPS_WQ


@dataclass
class SolveResult:
    status: str  # optimal | infeasible | timeout-with-incumbent
    incumbent: Policy | None
    wq: float | None
    proof: bool
    incumbent_trace: list[tuple[float, float]]  # (elapsed seconds, wq)
    stats: SearchStats


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise SolveTimeout


def _eval(inst: Instance, pol: Policy, stats: SearchStats) -> tuple[float, float]:
    stats.evaluations += 1
    return evaluate_b_wq(inst, pol)


def gmin(inst: Instance, store: DomainStore, fixed: dict[int, int] | None = None) -> Policy | None:
    """Smallest ordered policy in the box, honoring fixed assignments.

    Sweeps left to right taking the lowest value each domain still allows.
    Returns None when no completion exists.
    """
    if store.failed:
        return None
    ks = []
    prev = -1
    for i in range(inst.N):
        if fixed is not None and i in fixed:
            v = fixed[i]
            if v < store.lo[i] or v > store.hi[i] or v <= prev:
                return None
        else:
            v = max(store.lo[i], prev + 1)
            if v > store.hi[i]:
                return None
        ks.append(v)
        prev = v
    if prev >= inst.S:
        return None
    return tuple(ks) + (inst.S,)


def gmax(inst: Instance, store: DomainStore, fixed: dict[int, int] | None = None) -> Policy | None:
    """Largest ordered policy in the box, honoring fixed assignments.

    Mirror image of gmin: sweeps right to left taking the highest value each
    domain still allows below its successor.
    """
    if store.failed:
        return None
    n = inst.N
    ks = [0] * n
    nxt = inst.S
    for i in range(n - 1, -1, -1):
        if fixed is not None and i in fixed:
            v = fixed[i]
            if v < store.lo[i] or v > store.hi[i] or v >= nxt:
                return None
        else:
            v = min(store.hi[i], nxt - 1)
            if v < store.lo[i]:
                return None
        ks[i] = v
        nxt = v
    return tuple(ks) + (inst.S,)


# ---------------------------------------------------------------------------
# shaving probes; each returns "shaved", "stuck", or "proof"


def bl_gmin_probe(inst: Instance, store: DomainStore, i: int, inc: Incumbent,
                  stats: SearchStats, eps_b: float = EPS_B, eps_wq: float = EPS_WQ) -> str:
    """One requirement probe at k_i = hi_i with everything else minimal.

    A feasible completion is the cheapest-wait policy using that top value,
    so any improvement must use a smaller k_i and the top can go; an
    infeasible completion proves nothing here.  When the top cannot go
    because the domain is a single value, the incumbent is optimal.
    """
    stats.shave_iterations += 1
    pol = gmin(inst, store, {i: store.hi[i]})
    if pol is None:
        return "stuck"
    b, wq = _eval(inst, pol, stats)
    if b >= inst.Bl - eps_b:
        inc.consider(pol, wq, eps_wq)
        if store.hi[i] - 1 >= store.lo[i]:
            store.shrink_hi(i, store.hi[i] - 1)
            return "shaved"
        return "proof"
    return "stuck"


def bl_gmax_probe(inst: Instance, store: DomainStore, i: int, inc: Incumbent,
                  stats: SearchStats, eps_b: float = EPS_B, eps_wq: float = EPS_WQ) -> str:
    """One requirement probe at k_i = lo_i with everything else maximal.

    The completion carries the most back-room coverage available to that
    bottom value, so infeasibility rules the value out entirely; when the
    value cannot rise, the box holds no feasible policy at all and the
    incumbent is optimal.
    """
    stats.shave_iterations += 1
    pol = gmax(inst, store, {i: store.lo[i]})
    if pol is None:
        return "stuck"
    b, wq = _eval(inst, pol, stats)
    if b >= inst.Bl - eps_b:
        inc.consider(pol, wq, eps_wq)
        return "stuck"
    if store.lo[i] + 1 <= store.hi[i]:
        store.raise_lo(i, store.lo[i] + 1)
        return "shaved"
    return "proof"


def wq_gmin_probe(inst: Instance, store: DomainStore, i: int, inc: Incumbent,
                  stats: SearchStats, eps_wq: float = EPS_WQ) -> str:
    """One waiting-time probe at k_i = hi_i; the requirement is ignored.

    The completion is the best wait available to that top value, so a
    non-improving completion rules the value out for any improvement.
    """
    stats.shave_iterations += 1
    pol = gmin(inst, store, {i: store.hi[i]})
    if pol is None:
        return "stuck"
    _, wq = _eval(inst, pol, stats)
    if wq >= inc.wq - eps_wq:
        if store.hi[i] - 1 >= store.lo[i]:
            store.shrink_hi(i, store.hi[i] - 1)
            return "shaved"
        return "proof"
    return "stuck"


def bl_shave(inst: Instance, store: DomainStore, inc: Incumbent, stats: SearchStats,
             eps_b: float = EPS_B, eps_wq: float = EPS_WQ,
             deadline: float | None = None) -> str:
    """Shave every variable from both ends against the back-room requirement.

    Visits variables in index order, repeating a variable while it keeps
    shaving, until a full pass changes nothing.  Returns "fixpoint", or
    "proof" when the box provably holds nothing better than the incumbent.
    """
    while True:
        changed = False
        for i in range(inst.N):
            if store.failed:
                return "proof"
            while True:
                _check_deadline(deadline)
                out = bl_gmin_probe(inst, store, i, inc, stats, eps_b, eps_wq)
                if out == "shaved":
                    changed = True
                    continue
                if out == "proof":
                    return "proof"
                break
            while True:
                _check_deadline(deadline)
                out = bl_gmax_probe(inst, store, i, inc, stats, eps_b, eps_wq)
                if out == "shaved":
                    changed = True
                    continue
                if out == "proof":
                    return "proof"
                break
        if not changed:
            return "fixpoint"


def wq_shave(inst: Instance, store: DomainStore, inc: Incumbent, stats: SearchStats,
             eps_wq: float = EPS_WQ, deadline: float | None = None) -> str:
    """Shave upper ends against the incumbent's waiting time."""
    while True:
        changed = False
        for i in range(inst.N):
            if store.failed:
                return "proof"
            while True:
                _check_deadline(deadline)
                out = wq_gmin_probe(inst, store, i, inc, stats, eps_wq)
                if out == "shaved":
                    changed = True
                    continue
                if out == "proof":
                    return "proof"
                break
        if not changed:
            return "fixpoint"


def alternating_shave(inst: Instance, store: DomainStore, inc: Incumbent,
                      stats: SearchStats, eps_b: float = EPS_B, eps_wq: float = EPS_WQ,
                      deadline: float | None = None) -> str:
    """Alternate the two shaves until neither moves a bound."""
    while True:
        before = store.snapshot()
        if bl_shave(inst, store, inc, stats, eps_b, eps_wq, deadline) == "proof":
            return "proof"
        if wq_shave(inst, store, inc, stats, eps_wq, deadline) == "proof":
            return "proof"
        if store.snapshot() == before:
            return "fixpoint"


# ---------------------------------------------------------------------------
# dominance cuts


def record_dominance(pol: Policy, n: int) -> tuple[int, tuple[int, ...]] | None:
    """Cut derived from a feasible policy whose prefix sits at the minimum.

    Returns (start, values): any strictly better policy must take some k_i
    below values[i - start] for i >= start.  Returns None for the all-early
    policy, which leaves nothing to cut.
    """
    j = next((i for i in range(n) if pol[i] > i), None)
    if j is None:
        return None
    return j, tuple(pol[j:n])


def _dominance_blocked(ks: list[int], depth: int, store: DomainStore,
                       cuts: list[tuple[int, tuple[int, ...]]]) -> bool:
    """True when some cut is unsatisfiable everywhere in the node's box."""
    for start, values in cuts:
        satisfied = True
        for i in range(start, len(store.lo)):
            mn = ks[i] if i < depth else store.lo[i]
            if mn < values[i - start]:
                satisfied = False
                break
        if satisfied:
            return True
    return False


# ---------------------------------------------------------------------------
# depth-first search


def search(inst: Instance, store: DomainStore, inc: Incumbent, stats: SearchStats,
           cuts: list[tuple[int, tuple[int, ...]]] | None = None,
           eps_b: float = EPS_B, eps_wq: float = EPS_WQ,
           deadline: float | None = None, restart_on_improve: bool = False) -> None:
    """Depth-first assignment of k_0..k_{N-1}, smallest values first.

    A subtree is pruned when its upward corner misses the requirement, its
    downward corner cannot improve the incumbent, or a dominance cut spans
    it.  Counts every visited node in stats.  Raises SolveTimeout at the
    deadline, and _Improved instead of continuing when restart_on_improve is
    set and the incumbent improves.
    """
    if store.failed:
        return
    n, s = inst.N, inst.S
    ks = [0] * n

    def descend(depth: int) -> None:
        _check_deadline(deadline)
        stats.nodes += 1
        if depth == n:
            pol = tuple(ks) + (s,)
            b, wq = _eval(inst, pol, stats)
            if b >= inst.Bl - eps_b and inc.consider(pol, wq, eps_wq) and restart_on_improve:
                raise _Improved
            return
        fixed = {t: ks[t] for t in range(depth)}
        corner = gmax(inst, store, fixed)
        if corner is None:
            return
        b, _ = _eval(inst, corner, stats)
        if b < inst.Bl - eps_b:
            return
        corner = gmin(inst, store, fixed)
        if corner is None:
            return
        _, wq = _eval(inst, corner, stats)
        if wq >= inc.wq - eps_wq:
            return
        if cuts and _dominance_blocked(ks, depth, store, cuts):
            return
        floor = ks[depth - 1] + 1 if depth else 0
        for v in range(max(store.lo[depth], floor), store.hi[depth] + 1):
            ks[depth] = v
            descend(depth + 1)

    descend(0)


# ---------------------------------------------------------------------------
# top-level dispatch


def solve(inst: Instance, cfg: SolverConfig | None = None) -> SolveResult:
    """Find and prove the minimum-wait feasible policy under the configured plan.

    Always starts by testing the two extreme policies: the all-late one
    decides feasibility of the whole instance and seeds the incumbent, and a
    feasible all-early one is optimal outright.  With hybrid set, the
    heuristic walk runs next, under the same deadline, and its result
    tightens the incumbent before any shaving or search.
    """
    if cfg is None:
        cfg = SolverConfig()
    if cfg.strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {cfg.strategy!r}; pick one of {STRATEGIES}")
    validate_instance(inst)
    start = time.perf_counter()
    deadline = start + cfg.time_limit if cfg.time_limit is not None else None
    stats = SearchStats()
    trace: list[tuple[float, float]] = []
    cuts: list[tuple[int, tuple[int, ...]]] = []

    def on_update(pol: Policy, wq: float) -> None:
        trace.append((time.perf_counter() - start, wq))
        if cfg.dominance:
            cut = record_dominance(pol, inst.N)
            if cut is not None:
                cuts.append(cut)

    inc = Incumbent(on_update=on_update)
    late = max_backroom_policy(inst)
    b, wq = _eval(inst, late, stats)
    if b < inst.Bl - cfg.eps_b:
        return SolveResult("infeasible", None, None, False, trace, stats)
    inc.consider(late, wq, cfg.eps_wq)
    early = min_wait_policy(inst)
    b, wq = _eval(inst, early, stats)
    if b >= inst.Bl - cfg.eps_b:
        inc.consider(early, wq, cfg.eps_wq)
        return SolveResult("optimal", inc.policy, inc.wq, True, trace, stats)
    if cfg.hybrid:
        hres = run_p1(inst, eps_b=cfg.eps_b, deadline=deadline)
        stats.evaluations += hres.steps
        if hres.policy is not None:
            inc.consider(hres.policy, hres.wq, cfg.eps_wq)
        if hres.status == "timeout":
            return SolveResult("timeout-with-incumbent", inc.policy, inc.wq, False, trace, stats)
    store = DomainStore.initial(inst)
    search_cuts = cuts if cfg.dominance else None
    try:
        if cfg.strategy == "alt-search-shave":
            while True:
                if alternating_shave(inst, store, inc, stats, cfg.eps_b, cfg.eps_wq,
                                     deadline) == "proof":
                    break
                try:
                    search(inst, store, inc, stats, search_cuts, cfg.eps_b, cfg.eps_wq,
                           deadline, restart_on_improve=True)
                except _Improved:
                    continue
                break
        else:
            proved = False
            if cfg.strategy == "bl-shave":
                proved = bl_shave(inst, store, inc, stats, cfg.eps_b, cfg.eps_wq,
                                  deadline) == "proof"
            elif cfg.strategy == "wq-shave":
                proved = wq_shave(inst, store, inc, stats, cfg.eps_wq, deadline) == "proof"
            elif cfg.strategy == "alt-shave":
                proved = alternating_shave(inst, store, inc, stats, cfg.eps_b, cfg.eps_wq,
                                           deadline) == "proof"
            if not proved:
                search(inst, store, inc, stats, search_cuts, cfg.eps_b, cfg.eps_wq, deadline)
    except SolveTimeout:
        return SolveResult("timeout-with-incumbent", inc.policy, inc.wq, False, trace, stats)
    return SolveResult("optimal", inc.policy, inc.wq, True, trace, stats)
