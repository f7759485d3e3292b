"""The switching heuristic P1 of Berman, Wang and Sapna (2005).

Starting from the all-late policy, the walk repeatedly moves the smallest
movable switching point down one step while the back-room requirement holds,
and repairs a broken requirement by moving points back up.  An index guard J
freezes everything at or above the last index whose decrement broke
feasibility, which keeps the walk from cycling forever.  The best feasible
policy seen is returned; it is guaranteed optimal only when it is one of the
two extreme policies.

Each walk evaluates through a workspace of its own from ``core``: its
first policy goes through the workspace's ``b_wq``, which fills every live
state.  Past it the walk patches the one ratio each move changes into the
workspace's buffers and evaluates from them itself, recomputing only the
half of the product that holds the changed state, so a step makes no
Python call beyond numpy's.
"""

import math
import time
from dataclasses import dataclass, field

from .core import (EPS_B, Instance, Policy, _accumulate, _Workspace, max_backroom_policy,
                   validate_instance)

# not the solver's EPS_WQ (1e-9), which guards prunes and proofs: with it,
# 481 of 1,939 measured walks ended on another policy, up to 1e-9 worse in Wq
IMPROVE_EPS = 1e-12


@dataclass
class HeuristicStep:
    """One evaluated policy along the walk."""

    policy: Policy
    B: float
    Wq: float
    action: str


@dataclass(slots=True)
class HeuristicResult:
    status: str              # "solved", "infeasible", or "timeout": the deadline
                             # passed mid-walk and policy is the best feasible seen
    policy: Policy | None
    wq: float | None
    steps: int               # policy evaluations performed
    trace: list[HeuristicStep] = field(default_factory=list)  # empty unless run_p1(trace=True)


def run_p1(inst: Instance, deadline: float | None = None, *,
           trace: bool = False) -> HeuristicResult:
    """Run the heuristic and return the best feasible policy it visits.

    With trace=True the result's ``trace`` holds one ``HeuristicStep`` per
    evaluated policy, in walk order; otherwise it stays empty and the walk
    keeps nothing per step.  ``steps`` counts the evaluations either way.

    deadline is a ``time.perf_counter()`` reading.  It is checked before
    every evaluation after the first; once it has passed, the walk stops with
    status "timeout" and the best feasible policy seen so far.

    Follows the published steps with the J guard: only indices below J may
    move, and J drops to j* whenever decrementing k_{j*} breaks the
    requirement.  One reading quirk is resolved here: when nothing below J
    can move down, the current policy is feasible with its prefix packed at
    the minimum, so moving points up could only bounce back and forth; the
    walk stops instead.  The walk may still pass through a policy twice right
    after a repair, but J shrinks each time, so it always terminates.

    The all-late policy goes through the workspace's ``b_wq``, which fills
    the ratio of every live state.  Every later policy differs from the one
    before by one +-1 move, so the walk writes the one ratio that move
    changes into ``step_buf`` and evaluates from the buffers with the
    workspace's own arithmetic.  The product is anchored at k_a
    (``_Workspace``), and a move recomputes only the half that holds the
    state it changes: the forward half on a move at or above index a, the
    backward half on a move at or below it, which never happens while a = 0.
    """
    validate_instance(inst)
    s, n = inst.S, inst.N
    ws = _Workspace(inst)
    log: list[HeuristicStep] = []

    target = inst.Bl - EPS_B
    pol = max_backroom_policy(inst)
    b, wq = ws.b_wq(pol)
    steps = 1
    if trace:
        log.append(HeuristicStep(pol, b, wq, "start"))
    if b < target:
        return HeuristicResult("infeasible", None, None, steps, log)
    best_pol, best_wq = pol, wq
    big_j = n
    # Indices below floor cannot move down: a decrement at j leaves the gaps
    # below j alone, and a repair that moves k_j back up reopens only index j,
    # so the downward scan never needs to revisit anything smaller.
    floor = 0
    cap = 20 * (n + 1) * (s + 2) + 100
    clock = time.perf_counter
    # k ends in a sentinel -1, so k[j - 1] at j = 0 reads it, and the
    # type-1 test k[j] - k[j - 1] > 1 (can k_j move down?) also covers k_0 > 0
    k = [*pol, -1]
    a, rs, step_mv, q_mv = ws.a, ws.rs, ws.step_mv, ws.q_mv
    step_buf, q_buf, ones_t = ws.step_buf, ws.q_buf, ws.ones_t
    lam, lm, inv_mu, inf = ws.lam, ws.lm, ws.inv_mu, math.inf
    accumulate = _accumulate
    repair = False  # a decrement broke the requirement: move points up until it holds
    q = None  # no views yet: the first move builds them
    j = 0
    while True:
        if repair:
            # raising k_j widens only the gap below it, so every index
            # below j - 1 stays stuck and the next scan starts at j - 1
            j = j - 1 if j else 0
            while j < big_j and k[j + 1] - k[j] <= 1:  # type 2: can k_j move up?
                j += 1
            if j == big_j:
                break
            if deadline is not None and clock() > deadline:
                return HeuristicResult("timeout", tuple(best_pol),
                                       0.0 if best_wq < 0.0 else best_wq, steps, log)
            if j < floor:
                floor = j
            t = k[j] + 1
            k[j] = t
            if j:  # state t joins segment j - 1; raising k_0 changes no ratio
                step_mv[t] = rs[j - 1]
        else:
            if steps > cap:
                raise RuntimeError("heuristic exceeded its move budget; this is a bug")
            if deadline is not None and clock() > deadline:
                return HeuristicResult("timeout", tuple(best_pol),
                                       0.0 if best_wq < 0.0 else best_wq, steps, log)
            j = floor
            while j < big_j and k[j] - k[j - 1] <= 1:
                j += 1
            if j == big_j:
                break
            floor = j
            t = k[j]
            k[j] = t - 1
            step_mv[t] = rs[j]  # state t joins segment j
        # the views change only when an anchor moves: k_0, and k_a
        if j == 0 or j == a or q is None:
            k0, p = k[0], k[a]
            q_mv[p + 1] = 1.0
            fwd_s, fwd_q = step_buf[p + 1:], q_buf[p + 2:]
            if a:
                back_s, back_q = step_buf[p:k0:-1], q_buf[p:k0:-1]
            q, ot = q_buf[k0 + 1:s + 1], ones_t[k0:s]
        # _Workspace.b_wq, term for term, but a move changes one state, so
        # only the half of the product that holds it is recomputed
        if j >= a:
            accumulate(fwd_s, out=fwd_q)
        if a and j <= a:
            accumulate(back_s, out=back_q)
        below, moment = q.dot(ot).tolist()
        q_s = q_mv[s + 1]
        tot = below + q_s
        b = n - lm * (below / tot)
        wq = (moment + s * q_s) / below / lam - inv_mu if tot > q_s else inf
        steps += 1
        if trace:
            # B and Wq clamped at zero, as b_wq returns them; the tests below
            # read them raw: b a few ulps under zero meets Bl - EPS_B whenever
            # zero does, and IMPROVE_EPS dwarfs Wq's ulps
            log.append(HeuristicStep(tuple(k[:-1]), max(b, 0.0), 0.0 if wq < 0.0 else wq,
                                     f"{'inc' if repair else 'dec'} k{j}"))
        if b < target:
            if not repair:
                big_j = j
                repair = True
                j = 0
            continue
        repair = False
        if wq < best_wq - IMPROVE_EPS:
            best_pol, best_wq = k[:-1], wq
    return HeuristicResult("solved", tuple(best_pol), 0.0 if best_wq < 0.0 else best_wq,
                           steps, log)
