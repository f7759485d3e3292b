"""Steady-state evaluation of worker-switching policies.

A facility staffs N cross-trained workers who split their time between a
front room and a back room.  Customers arrive at rate lam, each front-room
worker serves at rate mu, and at most S customers fit in the system; arrivals
that find S customers are lost.  A switching policy k = (k_0, ..., k_N) with
k_N = S sends workers to the front as the crowd grows: exactly i workers
serve while the customer count lies in (k_{i-1}, k_i].  Nobody serves at or
below k_0, so the count never falls below k_0 and the chain lives on
{k_0, ..., S}.

F is the expected number of workers serving, B = N - F the expected number in
the back room, and Wq the expected queueing wait of an admitted customer.
Policies must keep B at or above the target Bl while minimizing Wq.

Two independent evaluation routes are provided.  ``evaluate_direct`` runs the
birth-death balance recursion state by state; ``evaluate_closed_form``
assembles the same distribution from geometric segments anchored at the
switching points, always in log space.  Its segment sums come from a
recursion that adds positive terms only, in whichever of rho and 1/rho is at
most one, so no ratio near one needs a special case; the brute-force judge
reads the same tables.  Both oracles sum B from the idle workers of each
state and the admitted share 1 - P(S) from the mass of the states below S.
They must agree to near machine precision, and the test suite leans on that
redundancy.  The hot route, ``evaluate_b_wq``, runs the recursion as
cumulative products over a reusable workspace, anchored at one switching
point, and sums the same mass; so do the P1 walk's inline steps and search's
carried corners.  No route subtracts the admitted share from one.  Wq is
the mean sojourn minus 1/mu, which can round a few ulps below zero where
the exact Wq is zero or tiny, so the three routes and the P1 walk clamp it
at zero, as the hot route clamps B; search's carried Wq only prunes and
stays unclamped.  Each ``evaluate_b_wq`` call rewrites the ratio of every
state its policy can reach, so no answer depends on an earlier call.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from threading import get_ident

import numpy as np

EPS_B = 1e-9

_RESCALE_HI = 1e100
_CUMPROD_LIMIT = 600.0  # S * ln(lam/mu) beyond this: a product from k_0 may overflow
_LONG_RUN = 64  # workspace fills of more states than this go through np.repeat

Policy = tuple[int, ...]


@dataclass(frozen=True)
class Instance:
    """One staffing problem: capacity, workers, rates, back-room target.

    The hash is the dataclass's own, taken once at construction: the
    evaluator looks its workspace up by instance on every call.
    """

    S: int
    N: int
    lam: float
    mu: float
    Bl: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.S, self.N, self.lam, self.mu, self.Bl)))

    def __hash__(self) -> int:
        return self._hash


@dataclass
class Metrics:
    """Steady-state summary of one policy on one instance."""

    p: list[float]   # P(j) for j = 0..S; zero below k_0
    F: float         # expected workers serving in the front room
    B: float         # expected workers in the back room, N - F
    L: float         # expected customers in the system
    Wq: float        # expected queueing wait of an admitted customer
    pBlock: float    # P(S), probability an arrival is lost


def validate_instance(inst: Instance) -> None:
    """Raise ValueError unless the instance is well formed."""
    if not isinstance(inst.S, int) or isinstance(inst.S, bool) or inst.S < 1:
        raise ValueError(f"S must be an integer >= 1, got {inst.S!r}")
    if not isinstance(inst.N, int) or isinstance(inst.N, bool) or not 1 <= inst.N <= inst.S:
        raise ValueError(f"N must be an integer in [1, S], got {inst.N!r} with S={inst.S}")
    for name, value in (("lam", inst.lam), ("mu", inst.mu)):
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value) or value <= 0:
            raise ValueError(f"{name} must be a finite positive rate, got {value!r}")
    if not math.isfinite(inst.lam / inst.mu):
        raise ValueError(f"lam / mu must be finite, got lam={inst.lam!r}, mu={inst.mu!r}")
    if not isinstance(inst.Bl, (int, float)) or isinstance(inst.Bl, bool) \
            or not math.isfinite(inst.Bl) or not 0 <= inst.Bl <= inst.N:
        raise ValueError(f"Bl must lie in [0, N], got {inst.Bl!r} with N={inst.N}")


def validate_policy(inst: Instance, pol: Policy) -> None:
    """Raise ValueError unless pol is a valid switching policy for inst."""
    if len(pol) != inst.N + 1:
        raise ValueError(f"policy needs {inst.N + 1} entries, got {len(pol)}")
    for v in pol:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"policy entries must be integers, got {v!r}")
    if pol[0] < 0:
        raise ValueError(f"k_0 must be nonnegative, got {pol[0]}")
    if pol[-1] != inst.S:
        raise ValueError(f"k_N must equal S={inst.S}, got {pol[-1]}")
    for i in range(1, len(pol)):
        if pol[i] <= pol[i - 1]:
            raise ValueError(f"switching points must strictly increase, got {pol}")


def min_wait_policy(inst: Instance) -> Policy:
    """The all-early policy: every worker switches in as soon as possible.

    It has the smallest Wq and the smallest B of any policy, so if it meets
    the back-room target it is optimal outright.
    """
    return tuple(range(inst.N)) + (inst.S,)


def max_backroom_policy(inst: Instance) -> Policy:
    """The all-late policy: every worker switches in as late as possible.

    It has the largest B of any policy, so if it misses the back-room target
    the instance has no feasible policy at all.
    """
    return tuple(range(inst.S - inst.N, inst.S)) + (inst.S,)


def is_feasible(m: Metrics, inst: Instance) -> bool:
    """Back-room requirement test with a small slack for float rounding."""
    return m.B >= inst.Bl - EPS_B


# ---------------------------------------------------------------------------
# direct route: run the balance recursion


def _balance_weights(inst: Instance, pol: Policy) -> list[float]:
    """Unnormalized state weights q(j), j = 0..S, from the balance recursion.

    On the segment served by i workers, q(j+1) = q(j) * lam / (i * mu), from
    q(k_0) = 1; when the running value grows past float range the filled
    prefix is rescaled (the common factor cancels during normalization).  A
    shrinking value is left alone: the per-state ratio only falls along the
    walk, so a tiny tail stays tiny and may harmlessly underflow to zero.
    """
    lam, mu = inst.lam, inst.mu
    k0 = pol[0]
    q = [0.0] * (inst.S + 1)
    q[k0] = 1.0
    cur = 1.0
    j = k0
    for i in range(1, inst.N + 1):
        step = lam / (i * mu)
        while j < pol[i]:
            cur *= step
            j += 1
            q[j] = cur
            if cur > _RESCALE_HI:
                for t in range(k0, j + 1):
                    q[t] /= cur
                cur = 1.0
    return q


def evaluate_direct(inst: Instance, pol: Policy) -> Metrics:
    """Evaluate a policy by running the balance recursion state by state."""
    validate_instance(inst)
    validate_policy(inst, pol)
    s, n, lam, mu = inst.S, inst.N, inst.lam, inst.mu
    k0 = pol[0]
    q = _balance_weights(inst, pol)
    tot = math.fsum(q[k0:])
    p = [0.0] * (s + 1)
    for t in range(k0, s + 1):
        p[t] = q[t] / tot
    served = [(i, j) for i in range(1, n + 1) for j in range(pol[i - 1] + 1, pol[i] + 1)]
    f = math.fsum(i * p[j] for i, j in served)
    # B sums its nonnegative terms, N - i workers idle in each state, so
    # no subtraction from N can take it below zero
    b = math.fsum([n * p[k0]] + [(n - i) * p[j] for i, j in served])
    big_l = math.fsum(t * p[t] for t in range(k0, s + 1))
    admitted = lam * math.fsum(p[k0:s]) if p[s] < 1.0 else 0.0
    wq = big_l / admitted - 1.0 / mu if admitted > 0.0 else math.inf
    return Metrics(p=p, F=f, B=b, L=big_l, Wq=0.0 if wq < 0.0 else wq, pBlock=p[s])


# ---------------------------------------------------------------------------
# vectorized route: the balance recursion as cumulative products

_accumulate = np.multiply.accumulate


@lru_cache(maxsize=64)
def _ones_t(s: int) -> np.ndarray:
    """Rows (1, t) for t = 0..s: one dot product with a run of q gives both
    the mass and the first moment of those states.  Read-only, shared."""
    out = np.column_stack((np.ones(s + 1), np.arange(0.0, s + 1.0)))
    out.flags.writeable = False
    return out


class _Workspace:
    """Reusable buffers for the vectorized route on one instance, owned by one
    caller at a time: a thread's ``evaluate_b_wq`` calls, or one P1 walk.

    The balance product is anchored at the switching point k_a, where
    q(k_a) = 1, and q(t) sits at q_buf[t + 1].  It runs forward over the
    ratios into the states above k_a and backward over the inverse ratios
    below it.  Ordinarily a = 0: the product runs forward from k_0, peaks
    where the per-state ratio crosses one and only shrinks afterwards, so it
    stays in float range while S * ln(lam/mu) is small (a tail that
    underflows to zero is harmless).  Past _CUMPROD_LIMIT, a is the mode
    index, the number of worker levels whose ratio lam/(i*mu) is at least
    one: the distribution peaks at k_a and every partial product is at most
    one.  Whether a state lies at or below k_a depends only on its segment,
    so ``rs`` stores inverse ratios on the first a segments.

    step_buf[t] holds the ratio into state t.  Each call first rewrites it
    for every live state t = k_0 + 1..S (``_fill``), so its result is a
    function of the policy alone, whatever the buffers held before.  A P1
    walk calls ``b_wq`` once, for its first policy, then patches the one
    ratio each of its +-1 moves changes and evaluates from the buffers
    itself (``heuristic.run_p1``).

    The hot path avoids numpy's per-call overhead where the result cannot
    change: slice views are cached, the dot product is the array method
    (the same C routine as ``np.dot``, without the dispatch), and single
    entries are read and written through memoryviews of the buffers.
    """

    __slots__ = ("s", "n", "lam", "mu", "lm", "inv_mu", "a", "rs", "rs_arr", "ones_t",
                 "step_buf", "q_buf", "step_mv", "q_mv", "views")

    def __init__(self, inst: Instance):
        self.s, self.n, self.lam, self.mu = inst.S, inst.N, inst.lam, inst.mu
        self.lm, self.inv_mu = self.lam / self.mu, 1.0 / self.mu
        self.rs = rs = [self.lam / (i * self.mu) for i in range(1, self.n + 1)]
        self.a = 0
        if self.lam > self.mu and self.s * math.log(self.lam / self.mu) > _CUMPROD_LIMIT:
            self.a = a = sum(r >= 1.0 for r in rs)
            self.rs = [1.0 / r for r in rs[:a]] + rs[a:]
        self.rs_arr = np.array(self.rs)
        self.ones_t = _ones_t(self.s)
        self.step_buf = np.empty(self.s + 1)
        self.q_buf = np.empty(self.s + 2)
        self.step_mv = memoryview(self.step_buf)
        self.q_mv = memoryview(self.q_buf)
        self.views: dict[int, tuple] = {}  # per k_0; the buffers never move

    def _fill(self, pol: Policy) -> None:
        """Write pol's ratio into every live state k_0 + 1..S of step_buf.

        Runs of up to _LONG_RUN states are written state by state through
        the memoryview; longer ones by one np.repeat over the segment
        lengths, which costs more per call but less per state.  The policy
        is converted once at a fixed dtype: np.diff of the tuple would pay
        for discovering one.
        """
        t = pol[0]
        if self.s - t > _LONG_RUN:
            k = np.array(pol, dtype=np.intp)
            self.step_buf[t + 1:] = self.rs_arr.repeat(k[1:] - k[:-1])
            return
        mv = self.step_mv
        for r, k in zip(self.rs, pol[1:]):
            while t < k:
                t += 1
                mv[t] = r

    def b_wq(self, pol: Policy) -> tuple[float, float]:
        self._fill(pol)
        a, s, q_mv = self.a, self.s, self.q_mv
        k0, p = pol[0], pol[a]
        # per k_0, built for one k_a: the views stay valid while k_a holds still
        parts = self.views.get(k0)
        if parts is None or parts[0] != p:
            sb, qb = self.step_buf, self.q_buf
            parts = (p, sb[p + 1:], qb[p + 2:], sb[p:k0:-1], qb[p:k0:-1], qb[k0 + 1:s + 1],
                     self.ones_t[k0:s])
            self.views[k0] = parts
        _, fwd_s, fwd_q, back_s, back_q, q, ot = parts
        q_mv[p + 1] = 1.0
        _accumulate(fwd_s, out=fwd_q)
        if a:
            _accumulate(back_s, out=back_q)
        # mass and first moment of the states k_0..S-1; the admitted share
        # 1 - P(S) is their mass over the total, never a subtraction, which
        # would cancel under heavy blocking
        below, moment = q.dot(ot).tolist()
        q_s = q_mv[s + 1]
        tot = below + q_s
        # flow balance: admissions lam*(1 - P(S)) match completions mu*F,
        # because the count never drops below the number of workers serving
        wq = (moment + s * q_s) / below / self.lam - self.inv_mu if tot > q_s else math.inf
        # B and Wq round a few ulps below zero where the exact value is
        # tiny or zero: clamp both
        return max(self.n - self.lm * (below / tot), 0.0), 0.0 if wq < 0.0 else wq


@lru_cache(maxsize=32)
def _workspace(inst: Instance, thread: int) -> _Workspace:
    """evaluate_b_wq's workspace of one instance for one thread; threads never share one."""
    return _Workspace(inst)


# ---------------------------------------------------------------------------
# closed-form route: geometric segments anchored at the switching points, in logs


def _segment_tables(log_rho: Sequence[float],
                    lengths: Sequence[int]) -> tuple[list[list[float]], list[list[float]]]:
    """Log mass and mean offset of a geometric segment, per level and length.

    Row i holds the level with ratio rho = exp(log_rho[i]), built to
    lengths[i]; entry L holds log(sum_{t=1..L} rho^t) and the mean offset
    sum_{t=1..L} t * rho^t / sum_{t=1..L} rho^t (-inf and 0 at L = 0).
    With r = min(rho, 1 / rho) <= 1, G(L) = r * G(L-1) + 1 sums r^u for
    u < L.  A falling segment (rho <= 1) sums to rho * G(L), with moment
    rho * A(L), A(L) = r * A(L-1) + G(L); a rising one sums to rho^L * G(L),
    with moment rho^L * E(L), E(L) = r * E(L-1) + L.  Every step adds
    positive terms, so nothing cancels, no ratio near one needs a special
    case, and the relative error stays within a few L ulps.  The
    brute-force judge reads these tables too.
    """
    log_sums, offsets = [], []
    for lr, length in zip(log_rho, lengths):
        r = math.exp(-abs(lr))
        rising = lr > 0.0
        g = m = 0.0
        row_s, row_o = [-math.inf], [0.0]
        for t in range(1, length + 1):
            g = r * g + 1.0
            m = r * m + (t if rising else g)
            row_s.append((t * lr if rising else lr) + math.log(g))
            row_o.append(m / g)
        log_sums.append(row_s)
        offsets.append(row_o)
    return log_sums, offsets


def evaluate_closed_form(inst: Instance, pol: Policy) -> Metrics:
    """Evaluate a policy from geometric-segment sums, in log space.

    With q(k_0) = 1, log q(k_{i+1}) = log q(k_i) + (k_{i+1} - k_i) * log r_i,
    where r_i = lam / ((i+1) mu) is the ratio into the states
    (k_i, k_{i+1}].  The distribution splits into columns: the idle state
    k_0, the segments served by 1..N-1 workers, the last segment without
    state S, and state S.  A column's log mass is its start weight plus the
    entry of ``_segment_tables`` at its length, and its first moment is its
    mass times the start state plus the mean offset.  The masses are
    shifted by the largest before exponentiating, so no power leaves float
    range.  B sums the idle workers times mass and the admitted share
    1 - P(S) sums the mass below S, so neither subtracts: both stay accurate
    relative to their own size when blocking is heavy.
    """
    validate_instance(inst)
    validate_policy(inst, pol)
    s, n, lam, mu = inst.S, inst.N, inst.lam, inst.mu
    log_load = math.log(lam) - math.log(mu)
    lrs = [log_load - math.log(i) for i in range(1, n + 1)]
    lens = [pol[i + 1] - pol[i] for i in range(n)]
    logq = [0.0]
    for lr, length in zip(lrs, lens):
        logq.append(logq[-1] + length * lr)
    # columns: the idle state k_0, the states after k_i up to k_{i+1} for
    # i < N (to S - 1 on the last), and state S; column c <= N has c
    # servers, state S has N
    log_sum, offset = _segment_tables(lrs, lens[:-1] + [lens[-1] - 1])
    logm = [0.0] + [logq[i] + log_sum[i][-1] for i in range(n)] + [logq[n]]
    pos = [pol[0]] + [pol[i] + offset[i][-1] for i in range(n)] + [s]
    servers = [*range(n + 1), n]
    top = max(logm)
    w = [math.exp(v - top) for v in logm]
    tot = math.fsum(w)
    f = math.fsum(c * wc for c, wc in zip(servers, w))
    b = math.fsum((n - c) * wc for c, wc in zip(servers, w))
    big_l = math.fsum(x * wc for x, wc in zip(pos, w)) / tot
    p_s = w[-1] / tot
    logz = top + math.log(tot)
    p = [0.0] * (s + 1)
    for i in range(n):
        lp = logq[i] - logz
        for j in range(pol[i], pol[i + 1]):
            p[j] = math.exp(lp + (j - pol[i]) * lrs[i])
    p[s] = p_s
    admitted = lam * (math.fsum(w[:-1]) / tot) if p_s < 1.0 else 0.0
    wq = big_l / admitted - 1.0 / mu if admitted > 0.0 else math.inf
    return Metrics(p=p, F=f / tot, B=b / tot, L=big_l, Wq=0.0 if wq < 0.0 else wq,
                   pBlock=p_s)


def evaluate_b_wq(inst: Instance, pol: Policy) -> tuple[float, float]:
    """B and Wq only, for trusted policies.

    Its callers are the solve's shave probes and two extreme policies,
    through the solve's memo; search's improving leaves; ``generate``'s
    screening; and ``bench``'s fallback wait.  Runs the balance recursion
    as cumulative products over reusable buffers that belong to the
    instance and the calling thread; every call rewrites the ratios of the
    live states k_0 + 1..S, so no earlier call can change its answer.  The
    product is anchored at k_0, or, when S * ln(lam/mu) is large enough that
    it could overflow from there, at the mode of the distribution, so every
    instance stays on this route.  Skips validation and the distribution
    vector.
    """
    return _workspace(inst, get_ident()).b_wq(pol)
