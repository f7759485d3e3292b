"""Exhaustive search over the policy space.

The valid policies are exactly the N-subsets of {0, ..., S-1} with S
appended, so there are C(S, N) of them and lexicographic enumeration is a
combinations walk.  Brute force is the reference judge for every other
solver in the package, so it stays independent of the evaluator they use.

The judge screens the policies in blocks of a 2-D numpy array, one column
per policy.  A policy's state weights are built in the log domain: the
cumulative sum of the log balance ratios, taken down from state S, so the
idle state k_0 puts every state below it at -inf.  Each policy's log
weights are shifted by their maximum before exponentiating, so no capacity
can overflow.  F is the sum of the servers in each state times its weight,
never the flow-balance identity, and nothing is shared with
``evaluate_b_wq`` or its workspaces.  The screen only narrows the field: a
policy whose B lies within the screen's error bound of the back-room target,
or whose Wq might reach the running minimum, is decided by the direct
recursion (``_direct_b_wq``), feasibility first and then in lexicographic
order.  The answer is therefore the one the direct recursion gives when run
over every policy, bit for bit.
"""

import itertools
import math
from collections.abc import Iterator

import numpy as np

from .core import EPS_B, Instance, Policy, _direct_b_wq, validate_instance

ENUMERATION_LIMIT = 10_000_000

# policies * (S + 1) per screening block; bounds the memory a block takes.
# The per-block cost is mostly fixed numpy call overhead, so the judge's
# speed grows almost in proportion to this budget (see ROADMAP, Direction 1).
_BLOCK_ELEMENTS = 1 << 9


def policy_count(inst: Instance) -> int:
    """Number of valid policies, C(S, N)."""
    return math.comb(inst.S, inst.N)


def iter_policies(inst: Instance) -> Iterator[Policy]:
    """Yield every valid policy in lexicographic order."""
    s = inst.S
    for front in itertools.combinations(range(s), inst.N):
        yield front + (s,)


def _screen_tolerance(inst: Instance, down: np.ndarray) -> float:
    """Relative bound on how far the screen's F and Wq may sit from the recursion's.

    The screen's log weight of a state sums up to S logarithms, each at most
    spread = max |log(lam / (i * mu))| in size, so every partial sum over the
    states that carry weight is within S * spread plus the few dozen units
    below the largest where weights vanish; the recursion multiplies up to S
    ratios.  The bound covers both routes' rounding, with a margin.
    """
    spread = float(np.abs(down[1:]).max())
    return 8.0 * np.finfo(float).eps * (inst.S + 1) * (inst.S * spread + 48.0)


def _screen(inst: Instance, fronts: np.ndarray, down: np.ndarray,
            states: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B and bounds below and above the direct recursion's Wq for every row
    of fronts (k_0..k_{N-1} per policy).

    The work arrays hold one column per policy and one row per state, so the
    per-state sweeps run across whole blocks of policies.  level[j, r] counts
    the switching points of policy r at or below state j, which is the
    number of workers serving in state j + 1.  The log weight of state j
    relative to state S is the sum over u = j..S-1 of
    down[level[u]] = log(level[u] * mu / lam); down[0] is -inf, so every
    state below k_0 comes out at -inf and gets weight zero.  Wq's error grows
    as 1 / (1 - P(S)), since both routes form the admitted rate as
    lam * (1 - P(S)).
    """
    rows = len(fronts)
    level = np.zeros((inst.S + 1, rows), dtype=np.intp)
    level[fronts.T, np.arange(rows)] = 1
    np.cumsum(level, axis=0, out=level)
    w = down[level]
    w[-1] = 0.0
    np.cumsum(w[::-1], axis=0, out=w[::-1])
    w -= w.max(axis=0)
    np.exp(w, out=w)
    tot = w.sum(axis=0)
    open_share = 1.0 - w[-1] / tot
    served = w[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        per_admitted = (states @ w) / (tot * inst.lam * open_share)
        wq = per_admitted - 1.0 / inst.mu
        wq_err = tol * per_admitted / open_share
        served *= level[:-1]
        return inst.N - served.sum(axis=0) / tot, wq - wq_err, wq + wq_err


def brute_force_optimum(inst: Instance, force: bool = False,
                        eps_b: float = EPS_B) -> tuple[Policy, float] | None:
    """Enumerate everything and return (policy, wq) for the best feasible one.

    The result is the direct recursion's: the first policy in lexicographic
    order with the smallest Wq among those whose B meets Bl - eps_b, exactly
    as a loop of ``_direct_b_wq`` over ``iter_policies`` that keeps only
    strict improvements would return it.  Returns None when no policy meets
    the back-room target.  Spaces larger than ENUMERATION_LIMIT are refused
    unless force is set.
    """
    validate_instance(inst)
    count = policy_count(inst)
    if count > ENUMERATION_LIMIT and not force:
        raise ValueError(
            f"policy space has {count} members, above the enumeration limit "
            f"{ENUMERATION_LIMIT}; pass force=True to enumerate anyway")
    s, n = inst.S, inst.N
    target = inst.Bl - eps_b
    down = np.full(n + 1, -np.inf)
    down[1:] = np.log(np.arange(1, n + 1)) + (math.log(inst.mu) - math.log(inst.lam))
    tol = _screen_tolerance(inst, down)
    b_err = tol * n
    states = np.arange(s + 1, dtype=float)
    block = max(1, _BLOCK_ELEMENTS // (s + 1))
    combos = itertools.combinations(range(s), n)
    best: Policy | None = None
    best_wq = math.inf
    for start in range(0, count, block):
        rows = min(block, count - start)
        fronts = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, rows)),
                             dtype=np.intp, count=rows * n).reshape(rows, n)
        b, wq_lo, wq_hi = _screen(inst, fronts, down, states, tol)
        # settle feasibility first, so a policy the screen wrongly passes
        # cannot lower the bound the others are measured against
        exact: dict[int, float] = {}
        feasible = b >= target
        for r in np.flatnonzero(np.abs(b - target) <= b_err).tolist():
            b_r, exact[r] = _direct_b_wq(inst, tuple(fronts[r].tolist()) + (s,))
            feasible[r] = b_r >= target
            wq_lo[r] = wq_hi[r] = exact[r]
        reach = wq_hi[feasible]
        if not reach.size:
            continue
        # a policy can take the lead only if its Wq can reach the smaller of
        # the leader's and every feasible policy's upper bound; a NaN lower
        # bound (the screen put all the mass at S) counts as reachable
        bound = min(best_wq, float(reach.min()))
        for r in np.flatnonzero(feasible & ~(wq_lo > bound)).tolist():
            pol = tuple(fronts[r].tolist()) + (s,)
            wq_r = exact[r] if r in exact else _direct_b_wq(inst, pol)[1]
            if wq_r < best_wq:
                best, best_wq = pol, wq_r
    if best is None:
        return None
    return best, best_wq
