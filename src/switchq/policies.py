"""Exhaustive search over the policy space.

The valid policies are exactly the N-subsets of {0, ..., S-1} with S
appended, so there are C(S, N) of them and lexicographic enumeration is a
combinations walk.  Brute force is the reference judge for every other
solver in the package, so it stays independent of the evaluator they use.

The judge screens the policies in blocks of a 2-D numpy array, one row per
policy and one column per segment, so a policy costs N + 2 numbers whatever
S is.  On the segment served by i workers the state weights are geometric
in rho_i = lam / (i * mu), so a segment's mass and first moment follow from
its first state's weight and two per-instance tables indexed by level and
segment length: the log of sum_{t=1..L} rho_i^t and that sum's mean offset.
The tables come from ``core._segment_tables``, recursions with positive
terms only, in the ratio min(rho_i, 1 / rho_i), so nothing cancels and no
power leaves float range.  A policy's log weights at its switching points
are a cumulative sum of len_i * log(rho_i); each row is shifted by its
largest log mass before exponentiating, so no capacity can overflow.  The
last segment is split into the states below S and state S itself, so the
admitted share is the mass below S, summed from positive terms, never one
minus P(S).  F is the sum of the servers on each segment times its mass,
never the flow-balance identity.  The tables are shared with the closed-form
oracle only; nothing is shared with ``evaluate_b_wq`` or the solver.  The
screen only narrows the field: a policy whose B lies within the screen's
error bound of the back-room target, or whose Wq might reach the running
minimum, is decided by the direct oracle ``evaluate_direct``, feasibility
first and then in lexicographic order.  The answer is therefore the one that
oracle gives when run over every policy, bit for bit.
"""

import itertools
import math
from collections.abc import Iterator, Sequence

import numpy as np

from .core import EPS_B, Instance, Policy, _segment_tables, evaluate_direct, validate_instance

ENUMERATION_LIMIT = 10_000_000

# policies * (N + 1) per screening block (a row holds N + 2 numbers); bounds
# the memory a block takes.  The per-block cost is mostly fixed numpy call
# overhead, so the judge's speed grows almost in proportion to this budget
# (see ROADMAP, Direction 1).
_BLOCK_ELEMENTS = 1 << 9


def policy_count(inst: Instance) -> int:
    """Number of valid policies, C(S, N)."""
    return math.comb(inst.S, inst.N)


def iter_policies(inst: Instance) -> Iterator[Policy]:
    """Yield every valid policy in lexicographic order."""
    s = inst.S
    for front in itertools.combinations(range(s), inst.N):
        yield front + (s,)


def _screen_tolerance(inst: Instance, log_rho: Sequence[float]) -> float:
    """Relative bound on how far the screen's F and Wq may sit from the recursion's.

    The screen's log weight of a segment sums up to N + 1 terms of size at
    most S * spread, spread = max |log(lam / (i * mu))|, plus a table entry
    good to a few S ulps, so every log weight that carries mass is within
    (N + 2) * S * spread ulps; the recursion multiplies up to S ratios.  The
    bound covers both routes' rounding, with a margin.
    """
    spread = max(map(abs, log_rho))
    return 8.0 * np.finfo(float).eps * (inst.S + 1) * (inst.S * spread + 48.0)


class _ScreenTables:
    """Per-instance inputs of ``_screen``.

    A policy's row has N + 2 columns, each a run of states after a start
    state: the idle state k_0 (one state after k_0 - 1, at ratio 1), the
    segments 1..N-1, segment N without state S, and state S (one state
    after S - 1, at level N).  ``segment`` stacks three flat tables, each
    with one row per column, indexed by the column's length: the log segment
    sum, the mean offset, and length * log(rho), the log weight the column
    adds to the next column's start state.  ``sums`` has a column each for
    the mass below S, the servers times mass, and the total mass.
    """

    __slots__ = ("segment", "base", "sums", "tol")

    def __init__(self, inst: Instance):
        n = inst.N
        log_load = math.log(inst.lam) - math.log(inst.mu)
        log_rho = [log_load - math.log(i) for i in range(1, n + 1)]
        width = inst.S - n + 2
        log_sum, offset = _segment_tables(log_rho, [width - 1] * n)
        # the idle column and state S read only length 1
        pad = [0.0] * (width - 2)
        lengths = range(width)
        self.segment = np.array([
            [-math.inf, 0.0, *pad, *itertools.chain(*log_sum), -math.inf, log_rho[-1], *pad],
            [0.0, 1.0, *pad, *itertools.chain(*offset), 0.0, 1.0, *pad],
            [0.0] * width + [length * lr for lr in log_rho for length in lengths] + [0.0] * width])
        self.base = np.arange(0, (n + 2) * width, width)
        self.sums = np.ones((n + 2, 3))
        self.sums[:, 1] = np.arange(n + 2)
        self.sums[-1, :2] = (0.0, n)  # state S: not admitted, N servers
        self.tol = _screen_tolerance(inst, log_rho)


def _screen(inst: Instance, points: np.ndarray,
            tables: _ScreenTables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B and bounds below and above the direct recursion's Wq for every row
    of points (k_0 - 1, k_0, k_1, ..., k_{N-1}, S - 1, S per policy).

    Column j's states follow points[:, j], and a row's differences are the
    column lengths 1, len_1, ..., len_{N-1}, len_N - 1, 1.  The log weight
    of column j's start state relative to q(k_0) is the cumulative sum of
    length times log ratio over the earlier columns; adding the table's log
    segment sum gives the column's log mass.  Its first moment is its mass
    times the start state plus the table's mean offset.  So a row costs
    N + 2 numbers, and the numpy calls run across whole blocks of policies.
    The admitted share is the mass of every column but the last, from
    positive terms only, so Wq's error is relative to the wait per admitted
    arrival, with no factor for the share.  Where P(S) rounds to one, the
    direct oracle reports an infinite wait while these bounds stay finite;
    a test holds the judge to the oracle's answer there too.
    """
    idx = np.subtract(points[:, 1:], points[:, :-1])
    idx += tables.base
    w, pos, rise = tables.segment.take(idx, axis=1)
    w[:, 1:] += rise[:, :-1].cumsum(axis=1)
    w -= np.maximum.reduce(w, axis=1, keepdims=True)
    np.exp(w, out=w)
    pos += points[:, :-1]
    pos *= w
    below, served, tot = (w @ tables.sums).T
    with np.errstate(divide="ignore", invalid="ignore"):
        # once the mass below S underflows, the wait is infinite and the
        # lower bound NaN
        per_admitted = np.add.reduce(pos, axis=1) / below / inst.lam
        wq = per_admitted - 1.0 / inst.mu
        wq_err = tables.tol * per_admitted
        return inst.N - served / tot, wq - wq_err, wq + wq_err


def brute_force_optimum(inst: Instance, eps_b: float = EPS_B) -> tuple[Policy, float] | None:
    """Enumerate everything and return (policy, wq) for the best feasible one.

    The result is the direct oracle's: the first policy in lexicographic
    order with the smallest Wq among those whose B meets Bl - eps_b, exactly
    as a loop of ``evaluate_direct`` over ``iter_policies`` that keeps only
    strict improvements would return it.  Returns None when no policy meets
    the back-room target.  Spaces larger than ENUMERATION_LIMIT are refused.
    """
    validate_instance(inst)
    count = policy_count(inst)
    if count > ENUMERATION_LIMIT:
        raise ValueError(f"policy space has {count} members, above the enumeration limit "
                         f"{ENUMERATION_LIMIT}")
    s, n = inst.S, inst.N
    target = inst.Bl - eps_b
    tables = _ScreenTables(inst)
    b_err = tables.tol * n
    block = max(1, _BLOCK_ELEMENTS // (n + 1))
    buf = np.empty((min(block, count), n + 3), dtype=np.intp)
    buf[:, n + 1:] = (s - 1, s)
    combos = itertools.combinations(range(s), n)
    best: Policy | None = None
    best_wq = math.inf
    for start in range(0, count, block):
        rows = min(block, count - start)
        points = buf[:rows]
        fronts = points[:, 1:n + 1]
        fronts[...] = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, rows)),
                                  dtype=np.intp, count=rows * n).reshape(rows, n)
        np.subtract(fronts[:, 0], 1, out=points[:, 0])
        b, wq_lo, wq_hi = _screen(inst, points, tables)
        # settle feasibility first, so a policy the screen wrongly passes
        # cannot lower the bound the others are measured against
        exact: dict[int, float] = {}
        feasible = b >= target
        for r in (np.abs(b - target) <= b_err).nonzero()[0].tolist():
            m = evaluate_direct(inst, tuple(fronts[r].tolist()) + (s,))
            feasible[r] = m.B >= target
            wq_lo[r] = wq_hi[r] = exact[r] = m.Wq
        reach = wq_hi[feasible]
        if not reach.size:
            continue
        # a policy can take the lead only if its Wq can reach the smaller of
        # the leader's and every feasible policy's upper bound; a NaN lower
        # bound (the screen put all the mass at S) counts as reachable
        bound = min(best_wq, float(reach.min()))
        for r in (feasible & ~(wq_lo > bound)).nonzero()[0].tolist():
            pol = tuple(fronts[r].tolist()) + (s,)
            wq_r = exact[r] if r in exact else evaluate_direct(inst, pol).Wq
            if wq_r < best_wq:
                best, best_wq = pol, wq_r
    if best is None:
        return None
    return best, best_wq
