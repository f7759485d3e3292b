"""The switching heuristic P1 of Berman, Wang and Sapna (2005).

Starting from the all-late policy, the walk repeatedly moves the smallest
movable switching point down one step while the back-room requirement holds,
and repairs a broken requirement by moving points back up.  An index guard J
freezes everything at or above the last index whose decrement broke
feasibility, which keeps the walk from cycling forever.  The best feasible
policy seen is returned; it is guaranteed optimal only when it is one of the
two extreme policies.
"""

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from .core import EPS_B, Instance, Policy, _new_workspace, max_backroom_policy, validate_instance

# not the solver's EPS_WQ (1e-9), which guards prunes and proofs: with it,
# 481 of 1,939 measured walks ended on another policy, up to 1e-9 worse in Wq
IMPROVE_EPS = 1e-12


def type1_eligible(pol: Sequence[int], i: int) -> bool:
    """Can k_i move down one step without breaking the ordering?"""
    return pol[i] - pol[i - 1] > 1 if i > 0 else pol[0] > 0


def type2_eligible(pol: Sequence[int], i: int) -> bool:
    """Can k_i move up one step without breaking the ordering?"""
    return pol[i + 1] - pol[i] > 1


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
    """
    validate_instance(inst)
    s, n = inst.S, inst.N
    k = list(max_backroom_policy(inst))
    log: list[HeuristicStep] = []
    evaluate = _new_workspace(inst).b_wq  # the walk's own: its ``moved`` hints always hold

    target = inst.Bl - EPS_B
    pol = tuple(k)
    b, wq = evaluate(pol)
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
    while True:
        if steps > cap:
            raise RuntimeError("heuristic exceeded its move budget; this is a bug")
        if deadline is not None and time.perf_counter() > deadline:
            return HeuristicResult("timeout", best_pol, best_wq, steps, log)
        for j in range(floor, big_j):
            if type1_eligible(k, j):
                break
        else:
            break
        floor = j
        k[j] -= 1
        pol = tuple(k)
        b, wq = evaluate(pol, j)
        steps += 1
        if trace:
            log.append(HeuristicStep(pol, b, wq, f"dec k{j}"))
        if b < target:
            big_j = j
            # raising k_{j2} widens only the gap below it, so every index
            # below j2 - 1 stays stuck and the next scan starts at j2 - 1
            j2 = 0
            while True:
                for j2 in range(max(0, j2 - 1), big_j):
                    if type2_eligible(k, j2):
                        break
                else:
                    return HeuristicResult("solved", best_pol, best_wq, steps, log)
                if deadline is not None and time.perf_counter() > deadline:
                    return HeuristicResult("timeout", best_pol, best_wq, steps, log)
                if j2 < floor:
                    floor = j2
                k[j2] += 1
                pol = tuple(k)
                b, wq = evaluate(pol, j2)
                steps += 1
                if trace:
                    log.append(HeuristicStep(pol, b, wq, f"inc k{j2}"))
                if b >= target:
                    break
        if wq < best_wq - IMPROVE_EPS:
            best_pol, best_wq = pol, wq
    return HeuristicResult("solved", best_pol, best_wq, steps, log)
