"""Optimality search: domain shaving plus depth-first branch and bound.

The solver keeps a box of integer domains, one range per movable switching
point.  Corner completions bound what the box can hold: completing every free
variable downward gives the smallest waiting time in the box, completing
upward gives the largest back-room coverage.  Probing one variable at an end
of its domain and completing the rest therefore either proves that end value
useless (a shave) or produces a feasible policy worth recording.  A probe
never empties a domain: where the end value is the only one left, it ends
the shaving with a proof instead, so every box is nonempty.  Search
branches over the shaved box with the same corner bounds as pruning rules.

The two use different evaluators.  A probe fixes one index in a box that
changes after every shave, so it splices its corner into a policy tuple and
evaluates it with ``evaluate_b_wq`` through the solve's memo.  Search keeps
the box fixed and extends one prefix at a time, so it carries each prefix's
mass and first moment in closed form and completes it with a (scale, mass
below S, moment, q(S)) built from tables of geometric sums: every corner and
leaf then costs O(1), whatever S and N are, and none subtracts P(S) from one.
``_Corners`` holds those tables; the arithmetic that extends a prefix and
gives a corner's B and Wq is written out in ``search``'s node loop, so a
node calls nothing but the clock, save a table miss or an improving leaf.
Only such a leaf becomes a policy: it goes to ``evaluate_b_wq``, then to the
incumbent, so the incumbent's Wq is the evaluator's however it was found.
``solve`` runs every strategy as one loop of shaving, then search; search
returns True when it stopped on an improvement to shave again.
"""

import math
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .core import (EPS_B, Instance, Policy, evaluate_b_wq, max_backroom_policy,
                   min_wait_policy, validate_instance)
from .heuristic import run_p1

EPS_WQ = 1e-9
_SHORT_RUN = 8  # packed corner runs longer than this are bisected, not walked
_MEMO_SIZE = 64  # recent answers a solve keeps
_MEMO_MAX_LEN = 64  # longer policies skip the memo: measured, it cost them more than it saved

STRATEGIES = ("none", "bl-shave", "wq-shave", "alt-shave", "alt-search-shave")


class SolveTimeout(Exception):
    """Internal signal: the configured deadline passed."""


@dataclass
class DomainStore:
    """Integer ranges for the movable switching points k_0..k_{N-1}.

    Every store is normalized and nonempty: construction and each shrink
    raise lo and lower hi until both are strictly increasing, which drops
    only values no ordered policy can take, and a range that would end up
    empty raises ValueError instead.  The probes shave an end value only
    when the domain keeps another, so no box a solve builds or shrinks is
    ever empty.  The corner completions below rely on this, and on the box
    lying in [0, S - 1] as ``initial`` makes it.
    """

    lo: list[int]
    hi: list[int]

    def __post_init__(self) -> None:
        self._normalize()

    @classmethod
    def initial(cls, inst: Instance) -> "DomainStore":
        n, s = inst.N, inst.S
        return cls(lo=list(range(n)), hi=[s - n + i for i in range(n)])

    def copy(self) -> "DomainStore":
        return DomainStore(list(self.lo), list(self.hi))

    def snapshot(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(self.lo), tuple(self.hi)

    def contains(self, pol: Policy) -> bool:
        return all(self.lo[i] <= pol[i] <= self.hi[i] for i in range(len(self.lo)))

    # A shrink of a normalized store moves only a run of neighbours, so the
    # cascade stops at the first index with room; ``_normalize`` gives the
    # same box in O(N).  Only the shaved index can empty: each cascaded
    # bound sits one step inside its neighbour's, and lo (or hi) is strictly
    # increasing, so a cascaded range is no emptier than the shaved one.
    # A bound that would empty it raises before anything moves.

    def shrink_hi(self, i: int, new_hi: int) -> None:
        hi = self.hi
        if new_hi < hi[i]:
            if new_hi < self.lo[i]:
                raise ValueError(f"k_{i} <= {new_hi} empties [{self.lo[i]}, {hi[i]}]")
            hi[i] = new_hi
            while i > 0 and hi[i - 1] >= hi[i]:
                i -= 1
                hi[i] = hi[i + 1] - 1

    def raise_lo(self, i: int, new_lo: int) -> None:
        lo = self.lo
        if new_lo > lo[i]:
            if new_lo > self.hi[i]:
                raise ValueError(f"k_{i} >= {new_lo} empties [{lo[i]}, {self.hi[i]}]")
            lo[i] = new_lo
            last = len(lo) - 1
            while i < last and lo[i + 1] <= lo[i]:
                i += 1
                lo[i] = lo[i - 1] + 1

    def _normalize(self) -> None:
        n = len(self.lo)
        for i in range(1, n):
            if self.lo[i] < self.lo[i - 1] + 1:
                self.lo[i] = self.lo[i - 1] + 1
        for i in range(n - 2, -1, -1):
            if self.hi[i] > self.hi[i + 1] - 1:
                self.hi[i] = self.hi[i + 1] - 1
        if any(self.lo[i] > self.hi[i] for i in range(n)):
            raise ValueError(f"empty domain in lo {self.lo}, hi {self.hi}")


@dataclass(slots=True)
class SearchStats:
    nodes: int = 0
    shave_iterations: int = 0
    evaluations: int = 0
    # the (B, Wq) of up to _MEMO_SIZE recent policies, oldest first; only
    # solve sets it, and only for as long as it runs
    memo: dict[Policy, tuple[float, float]] | None = field(
        default=None, init=False, repr=False, compare=False)


@dataclass
class Incumbent:
    """Best feasible policy seen so far, with the trace of its improvements."""

    policy: Policy | None = None
    wq: float = math.inf
    start: float = field(default_factory=time.perf_counter)
    trace: list[tuple[float, float]] = field(default_factory=list)  # (elapsed s, wq)

    def consider(self, pol: Policy, wq: float) -> bool:
        if wq < self.wq - EPS_WQ:
            self.policy, self.wq = pol, wq
            self.trace.append((time.perf_counter() - self.start, wq))
            return True
        return False


@dataclass
class SolverConfig:
    strategy: str = "alt-search-shave"
    hybrid: bool = False
    time_limit: float | None = 600.0  # seconds; None or inf for no limit


@dataclass(slots=True)
class SolveResult:
    status: str  # optimal | infeasible | timeout-with-incumbent
    incumbent: Policy | None
    wq: float | None
    proof: bool
    incumbent_trace: list[tuple[float, float]]  # (elapsed seconds, wq)
    stats: SearchStats


def check_time_limit(time_limit: float | None) -> None:
    """Reject a time limit that is NaN or negative; None and inf mean none."""
    if time_limit is not None and not time_limit >= 0:
        raise ValueError(f"time limit must be None or a nonnegative number of seconds, "
                         f"got {time_limit!r}")


def _eval(inst: Instance, pol: Policy, stats: SearchStats) -> tuple[float, float]:
    """evaluate_b_wq, counted; a policy in the solve's memo gets its stored
    answer, which is the computed one bit for bit."""
    stats.evaluations += 1
    memo = stats.memo
    if memo is None:
        return evaluate_b_wq(inst, pol)
    res = memo.get(pol)
    if res is None:
        res = memo[pol] = evaluate_b_wq(inst, pol)
        if len(memo) > _MEMO_SIZE:
            del memo[next(iter(memo))]
    return res


def gmin(inst: Instance, store: DomainStore, head: Policy = (), start: int = 0) -> Policy:
    """Smallest policy in the box with k_start.. fixed to head.

    head must be strictly increasing and inside its domains, as search's
    prefixes and the probes' end values are.  On the normalized box the
    completion is lo[:start], then head, then a run packed upward from head's
    last value until it meets lo, then the rest of lo: the same policy as a
    left-to-right sweep taking the lowest value each domain allows, built by
    splicing.  The box is nonempty, so the completion always exists.

    The run puts w + t - u at index t, from u = start + len(head), while
    lo[t] - t < w - u.  lo is strictly increasing, so lo[t] - t never
    decreases: a run that reaches _SHORT_RUN steps past u is bisected, and
    a shorter one is walked.
    """
    lo = store.lo
    n = len(lo)
    t = u = start + len(head)
    v = w = head[-1] + 1 if head else 0
    x = u + _SHORT_RUN
    if x < n and lo[x] < w + _SHORT_RUN:
        t = bisect_left(range(n), w - u, x + 1, n, key=lambda y: lo[y] - y)
        v = w + t - u
    else:
        while t < n and lo[t] < v:
            t += 1
            v += 1
    return (*lo[:start], *head, *range(w, v), *lo[t:], inst.S)


def gmax(inst: Instance, store: DomainStore, head: Policy = (), start: int = 0) -> Policy:
    """Largest policy in the box with k_start.. fixed to head.

    Mirror image of gmin: hi up to a run packed downward to head's first
    value, then head, then the rest of hi.  The shave probes use both; with
    start 0 the run is empty and the corner is head + hi[len(head):], the
    spliced form that the tests hold search's carried corners to.  The run
    puts w - u + t at index t, down from u = start - 1, while
    hi[t] - t > w - u, and is bisected like gmin's.
    """
    hi = store.hi
    t = u = start - 1
    v = w = head[0] - 1 if head else inst.S - 1
    x = u - _SHORT_RUN
    if x >= 0 and hi[x] > w - _SHORT_RUN:
        t = bisect_right(range(x), w - u, key=lambda y: hi[y] - y) - 1
        v = w - u + t
    else:
        while t >= 0 and hi[t] > v:
            t -= 1
            v -= 1
    return (*hi[:t + 1], *range(v + 1, w + 1), *head, *hi[start + len(head):], inst.S)


# ---------------------------------------------------------------------------
# shaving probes; each returns "shaved", "stuck", or "proof"


def bl_gmin_probe(inst: Instance, store: DomainStore, i: int, inc: Incumbent,
                  stats: SearchStats) -> str:
    """One requirement probe at k_i = hi_i with everything else minimal.

    A feasible completion is the cheapest-wait policy using that top value,
    so any improvement must use a smaller k_i and the top can go; an
    infeasible completion proves nothing here.  When the top cannot go
    because the domain is a single value, the incumbent is optimal.
    """
    stats.shave_iterations += 1
    pol = gmin(inst, store, (store.hi[i],), i)
    b, wq = _eval(inst, pol, stats)
    if b >= inst.Bl - EPS_B:
        inc.consider(pol, wq)
        if store.hi[i] - 1 >= store.lo[i]:
            store.shrink_hi(i, store.hi[i] - 1)
            return "shaved"
        return "proof"
    return "stuck"


def bl_gmax_probe(inst: Instance, store: DomainStore, i: int, inc: Incumbent,
                  stats: SearchStats) -> str:
    """One requirement probe at k_i = lo_i with everything else maximal.

    The completion carries the most back-room coverage available to that
    bottom value, so infeasibility rules the value out entirely; when the
    value cannot rise, the box holds no feasible policy at all and the
    incumbent is optimal.
    """
    stats.shave_iterations += 1
    pol = gmax(inst, store, (store.lo[i],), i)
    b, wq = _eval(inst, pol, stats)
    if b >= inst.Bl - EPS_B:
        inc.consider(pol, wq)
        return "stuck"
    if store.lo[i] + 1 <= store.hi[i]:
        store.raise_lo(i, store.lo[i] + 1)
        return "shaved"
    return "proof"


def wq_gmin_probe(inst: Instance, store: DomainStore, i: int, inc: Incumbent,
                  stats: SearchStats) -> str:
    """One waiting-time probe at k_i = hi_i; the requirement is ignored.

    The completion is the best wait available to that top value, so a
    non-improving completion rules the value out for any improvement.
    """
    stats.shave_iterations += 1
    pol = gmin(inst, store, (store.hi[i],), i)
    _, wq = _eval(inst, pol, stats)
    if wq >= inc.wq - EPS_WQ:
        if store.hi[i] - 1 >= store.lo[i]:
            store.shrink_hi(i, store.hi[i] - 1)
            return "shaved"
        return "proof"
    return "stuck"


def _shave(probes, inst: Instance, store: DomainStore, inc: Incumbent,
           stats: SearchStats, deadline: float | None) -> str:
    """Run the probes at every variable in index order, repeating each probe
    while it keeps shaving, until a full pass changes nothing.  Returns
    "fixpoint", or "proof" when the box provably holds nothing better than
    the incumbent.
    """
    while True:
        changed = False
        for i in range(inst.N):
            for probe in probes:
                while True:
                    if deadline is not None and time.perf_counter() > deadline:
                        raise SolveTimeout
                    out = probe(inst, store, i, inc, stats)
                    if out == "proof":
                        return "proof"
                    if out != "shaved":
                        break
                    changed = True
        if not changed:
            return "fixpoint"


def bl_shave(inst: Instance, store: DomainStore, inc: Incumbent, stats: SearchStats,
             deadline: float | None = None) -> str:
    """Shave every variable from both ends against the back-room requirement."""
    return _shave((bl_gmin_probe, bl_gmax_probe), inst, store, inc, stats, deadline)


def wq_shave(inst: Instance, store: DomainStore, inc: Incumbent, stats: SearchStats,
             deadline: float | None = None) -> str:
    """Shave upper ends against the incumbent's waiting time."""
    return _shave((wq_gmin_probe,), inst, store, inc, stats, deadline)


def alternating_shave(inst: Instance, store: DomainStore, inc: Incumbent,
                      stats: SearchStats, deadline: float | None = None) -> str:
    """Alternate the two shaves until neither moves a bound."""
    while True:
        before = store.snapshot()
        if bl_shave(inst, store, inc, stats, deadline) == "proof":
            return "proof"
        if wq_shave(inst, store, inc, stats, deadline) == "proof":
            return "proof"
        if store.snapshot() == before:
            return "fixpoint"


# ---------------------------------------------------------------------------
# depth-first search on carried closed-form corners


_ROOT = (1.0, 0.0, 0.0)  # the carried empty prefix, before k_0


def _extend_segment(inst: Instance, d: int, row: list, size: int) -> None:
    """Extends segment d's row of scaled geometric sums to ``size`` entries.

    Entry L, (P, S, G1, G2), describes the states (a, a + L] that segment d
    adds after a switching point at a, where r = lam / (d mu): P is
    q(a + L) / q(a), G1 the mass and G2 the first moment about a of those
    states over q(a), all times e^-D with D = max(0, L ln r); S = e^-D
    scales what came before.  So a rising segment has P = 1 and sums of
    r^-j, a falling one has S = 1 and sums of r^j, and no entry leaves
    float range however wide the instance.  The sums run on from the row's
    last entry over powers taken from exp, so a row extended in steps holds
    the entries one built at once would.  Row 0 places k_0 itself: a
    virtual point at -1, then one state of weight one at -1 + L.
    """
    start = len(row)
    if d == 0:
        row.extend((1.0, 0.0, 1.0, float(L)) for L in range(start, size))
        return
    r = inst.lam / (d * inst.mu)
    lr = math.log(r)
    neg = -abs(lr)
    exp = math.exp
    g1, g2 = (row[-1][2], row[-1][3]) if row else (0.0, 0.0)
    if lr >= 0.0:
        # G1 = sum of r^(m - L) over m = 1..L, that is of r^-j over j < L,
        # and G2 sums G1 itself
        if row:
            g1 += row[-1][1]
        for L in range(start, size):
            y = exp(neg * L)
            g2 += g1
            row.append((1.0, y, g1, g2))
            g1 += y
    else:
        for L in range(start, size):
            y = exp(neg * L)
            if L:
                g1 += y
                g2 += L * y
            row.append((y, 1.0, g1, g2))


class _Corners:
    """The closed-form corner tables of one normalized box, for search.

    A search prefix k_0..k_{d-1} is carried as (Q, M, W): q at its last
    point, its mass and its first moment, relative to q(k_0) = 1 and divided
    by the largest q so far, so that Q <= 1 <= M once it holds a point.
    Only ratios of these reach B and Wq, so the scale itself is not kept.
    A child with k_d = v extends a prefix ending at k_{d-1} = a by entry
    v - a of segment row d.  A corner is a prefix completed along the box:
    the completion from k_{d-1} = a is (al, bb, ga, si), its scale, mass
    below S, moment and q(S), so the corner's mass below S, moment and q(S)
    are M*al + Q*bb, W*al + Q*ga and Q*si up to a common factor, and the
    workspace's formulas give B and Wq.  ``search`` does both inline.
    ``upper`` completes along hi (gmax), ``lower`` packs upward from a, then
    follows lo (gmin); from k_{N-1}, both complete a leaf with segment N,
    the only one to reach S.  A completion is built on first use from the
    next point's (``complete``): O(1) once per search, as is every corner.

    Segment rows start as long as the first segment asked for and at least
    double whenever a longer one is, so a search pays for the segments it
    uses, not for the whole box.  Only ``complete`` grows them.
    """

    __slots__ = ("n", "s", "inst", "off", "lo_x", "hi_x", "seg", "upper", "lower")

    def __init__(self, inst: Instance, store: DomainStore):
        n, s = inst.N, inst.S
        self.n, self.s, self.inst = n, s, inst
        self.lo_x = store.lo + [s]  # bounds of k_d, with k_N = S
        self.hi_x = store.hi + [s]
        self.seg = [[] for _ in range(n + 1)]
        # the completions from k_{d-1} = a sit at a + off[d], for a within
        # k_{d-1}'s bounds; -1 stands before k_0
        self.off = off = []
        size = 0
        for lo, hi in zip([-1] + store.lo, [-1] + store.hi):
            off.append(size - lo)
            size += hi - lo + 1
        self.upper = [None] * size
        self.lower = [None] * size

    def complete(self, rows: list, d: int, a: int) -> tuple:
        """The completion from k_{d-1} = a that rows (upper or lower) hold,
        filling it and any missing completions it rests on."""
        upward = rows is self.upper
        off, lo_x, hi_x, seg, n = self.off, self.lo_x, self.hi_x, self.seg, self.n
        chain = []
        while d <= n:
            i = a + off[d]
            got = rows[i]
            if got is not None:
                break
            x = hi_x[d] if upward else max(a + 1, lo_x[d])
            chain.append((i, d, x - a, a))
            d, a = d + 1, x
        for i, d, length, a in reversed(chain):
            row = seg[d]
            if length >= len(row):
                _extend_segment(self.inst, d, row, min(max(length + 1, 2 * len(row)), self.s + 2))
            p, sc, g1, g2 = row[length]
            if d == n:
                # segment N alone reaches S: the states below it are entry
                # L - 1's, rescaled to entry L by row[1]'s S (1/r or 1)
                got = rows[i] = (sc, row[length - 1][2] * row[1][1], a * g1 + g2, p)
            else:
                al, bb, ga, si = got
                got = rows[i] = (sc * al, g1 * al + p * bb, (a * g1 + g2) * al + p * ga, p * si)
        return got


def search(inst: Instance, store: DomainStore, inc: Incumbent, stats: SearchStats,
           deadline: float | None = None, restart_on_improve: bool = False) -> bool:
    """Depth-first assignment of k_0..k_{N-1}, smallest values first.

    A subtree is pruned when its upward corner misses the requirement or its
    downward corner cannot improve the incumbent.  Corners and leaves are
    evaluated in closed form on carried prefixes (see ``_Corners``), each in
    O(1) and counted as one evaluation.  Only a feasible leaf whose carried
    Wq would improve the incumbent becomes a policy tuple: it is evaluated
    once more, uncounted, by ``evaluate_b_wq``, and offered to the incumbent
    with that answer, so a result's Wq is the evaluator's for its policy.
    Returns True when it stops early because restart_on_improve is set and
    the incumbent improved, and False when it has searched the whole box.
    Adds the visited nodes and evaluations to stats on every exit, and
    raises SolveTimeout at the deadline.
    """
    n, s = inst.N, inst.S
    lo, hi = store.lo, store.hi
    target = inst.Bl - EPS_B
    lam, lm, inv_mu = inst.lam, inst.lam / inst.mu, 1.0 / inst.mu
    corners = _Corners(inst, store)
    upper, lower, off, seg, complete = (corners.upper, corners.lower, corners.off, corners.seg,
                                        corners.complete)
    perf_counter = time.perf_counter
    best = inc.wq - EPS_WQ  # re-read after each consider, the one writer of inc.wq

    # The node to visit is (d, a, q, m, w): its depth, k_{d-1} and carried
    # prefix.  The open node, whose children are being visited, is (od, oa,
    # oq, om, ow) with its next child value v, its last one top and its
    # segment row; path[t] holds the open ancestor at depth t, so depth (up
    # to N) never meets the interpreter's recursion limit.  Nodes are
    # visited in the order of a recursive descent; ks holds the values on
    # the current path.
    ks = [0] * n
    path = [None] * n
    d, a = 0, -1
    q, m, w = _ROOT
    od, v, top = -1, 0, -1  # nothing open yet
    nodes = evaluations = 0
    try:
        while True:
            if deadline is not None and perf_counter() > deadline:
                raise SolveTimeout
            nodes += 1
            evaluations += 1
            i = a + off[d]
            al, bb, ga, si = upper[i] or complete(upper, d, a)
            below = m * al + q * bb  # the corner's mass below S
            b = n - lm * (below / (below + q * si))
            if d == n:
                if b >= target and below > 0.0 and (w * al + q * ga) / below / lam - inv_mu < best:
                    # an improvement keeps the evaluator's (B, Wq) for its
                    # policy, not the carried one; improvements are rare
                    pol = (*ks, s)
                    b, wq = evaluate_b_wq(inst, pol)
                    if b >= target and inc.consider(pol, wq):
                        if restart_on_improve:
                            return True
                        best = inc.wq - EPS_WQ
            elif b >= target:
                evaluations += 1
                al, bb, ga, _ = lower[i] or complete(lower, d, a)
                below = m * al + q * bb
                if below > 0.0 and (w * al + q * ga) / below / lam - inv_mu < best:
                    if od >= 0:
                        path[od] = (oa, oq, om, ow, v, top, row)
                    od, oa, oq, om, ow = d, a, q, m, w
                    v, top, row = a + 1 if a >= lo[d] else lo[d], hi[d], seg[d]
            while v > top:
                if od <= 0:
                    return False
                od -= 1
                oa, oq, om, ow, v, top, row = path[od]
            # the open node's next child: row od already holds entry v - oa,
            # as the open node's upward completion reached k_od = hi[od]
            p, sc, g1, g2 = row[v - oa]
            d, a = od + 1, v
            q, m, w = oq * p, om * sc + oq * g1, ow * sc + oq * (oa * g1 + g2)
            ks[od] = v
            v += 1
    finally:
        stats.nodes += nodes
        stats.evaluations += evaluations


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
    check_time_limit(cfg.time_limit)
    validate_instance(inst)
    start = time.perf_counter()
    deadline = start + cfg.time_limit if cfg.time_limit is not None else None
    stats = SearchStats()
    # the shave probes and the two extreme policies revisit many corners
    # (search carries its own); every return drops the memo, because
    # results outlive the solve
    stats.memo = {} if inst.N + 1 <= _MEMO_MAX_LEN else None
    inc = Incumbent(start=start)

    def result(status: str) -> SolveResult:
        wq = None if inc.policy is None else inc.wq
        stats.memo = None
        return SolveResult(status, inc.policy, wq, status == "optimal", inc.trace, stats)

    late = max_backroom_policy(inst)
    b, wq = _eval(inst, late, stats)
    if b < inst.Bl - EPS_B:
        return result("infeasible")
    inc.consider(late, wq)
    early = min_wait_policy(inst)
    b, wq = _eval(inst, early, stats)
    if b >= inst.Bl - EPS_B:
        inc.consider(early, wq)
        return result("optimal")
    if cfg.hybrid:
        hres = run_p1(inst, deadline=deadline)
        stats.evaluations += hres.steps
        if hres.policy is not None:
            inc.consider(hres.policy, hres.wq)
        if hres.status == "timeout":
            return result("timeout-with-incumbent")
    store = DomainStore.initial(inst)
    # looked up per call so that replaced module attributes are honoured
    shave = {"bl-shave": bl_shave, "wq-shave": wq_shave, "alt-shave": alternating_shave,
             "alt-search-shave": alternating_shave}.get(cfg.strategy)
    restart = cfg.strategy == "alt-search-shave"
    try:
        while (shave is None or shave(inst, store, inc, stats, deadline) != "proof") \
                and search(inst, store, inc, stats, deadline, restart_on_improve=restart):
            pass
    except SolveTimeout:
        return result("timeout-with-incumbent")
    return result("optimal")
