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
assembles the same distribution from geometric-series identities anchored at
the switching points, always in log space, and takes the admitted share
1 - P(S) as the summed mass of the states below S.  They must agree to near
machine precision, and the test suite leans on that redundancy.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from threading import get_ident

import numpy as np

EPS_B = 1e-9

_NEAR_ONE_TOL = 1e-3  # |r - 1| below this: the closed first moment sums term by term
_RESCALE_HI = 1e100
_CUMPROD_LIMIT = 600.0  # S * ln(lam/mu) beyond this: a product from k_0 may overflow
_LONG_RUN = 64  # workspace rewrites of more states than this go through np.repeat

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


def is_feasible(m: Metrics, inst: Instance, eps: float = EPS_B) -> bool:
    """Back-room requirement test with a small slack for float rounding."""
    return m.B >= inst.Bl - eps


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
    f = math.fsum(i * p[j] for i in range(1, n + 1) for j in range(pol[i - 1] + 1, pol[i] + 1))
    big_l = math.fsum(t * p[t] for t in range(k0, s + 1))
    admitted = lam * (1.0 - p[s])
    wq = big_l / admitted - 1.0 / mu if admitted > 0.0 else math.inf
    return Metrics(p=p, F=f, B=n - f, L=big_l, Wq=wq, pBlock=p[s])


def _direct_b_wq(inst: Instance, pol: Policy) -> tuple[float, float]:
    """B and Wq by the direct recursion, without validation or the normalized vector.

    The brute-force judge's confirmer: the judge screens whole blocks of
    policies with its own batched arithmetic and calls this only for the few
    whose feasibility or rank the screen cannot settle, so its answers are
    this function's.  Callers pass trusted policies.
    """
    s, n, lam, mu = inst.S, inst.N, inst.lam, inst.mu
    k0 = pol[0]
    q = _balance_weights(inst, pol)
    tot = math.fsum(q[k0:])
    f = math.fsum(i * q[j] for i in range(1, n + 1) for j in range(pol[i - 1] + 1, pol[i] + 1)) / tot
    big_l = math.fsum(t * q[t] for t in range(k0, s + 1)) / tot
    p_s = q[s] / tot
    admitted = lam * (1.0 - p_s)
    wq = big_l / admitted - 1.0 / mu if admitted > 0.0 else math.inf
    return n - f, wq


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
    """Reusable buffers for ``evaluate_b_wq`` on one instance in one thread.

    step_buf[t] holds the balance ratio into state t, t = k_0 + 1..S, for
    the policy of the previous call, and the product runs forward from
    q(k_0) = 1.  It peaks where the per-state ratio crosses one and only
    shrinks afterwards, so it stays in float range while S * ln(lam/mu) is
    small (a tail that underflows to zero is harmless).  Each call rewrites
    only the states whose segment changed (``_sync``), and a call that
    repeats the previous policy returns the stored result, since those
    ratios are a function of the policy alone.  A caller that moved exactly
    one switching point by one step since its previous call here may pass
    that point's index as ``moved``, which goes straight to the one-entry
    patch and skips the search for the moved points (and the repeat check).

    The hot path avoids numpy's per-call overhead where the result cannot
    change: slice views are cached, the dot product is the array method
    (the same C routine as ``np.dot``, without the dispatch), and single
    entries are read and written through memoryviews of the buffers.
    """

    __slots__ = ("s", "n", "lam", "mu", "rs", "rs_arr", "ones_t", "step_buf", "q_buf",
                 "step_mv", "q_mv", "views", "last", "res")

    def __init__(self, inst: Instance):
        self.s, self.n, self.lam, self.mu = inst.S, inst.N, inst.lam, inst.mu
        self.rs = [self.lam / (i * self.mu) for i in range(1, self.n + 1)]
        self.rs_arr = np.array(self.rs)
        self.ones_t = _ones_t(self.s)
        self.step_buf = np.empty(self.s + 1)
        self.q_buf = np.empty(self.s + 2)  # the mode-anchored layout needs s + 2
        self.step_mv = memoryview(self.step_buf)
        self.q_mv = memoryview(self.q_buf)
        self.views: dict[int, tuple] = {}  # per k_0; the buffers never move
        self.last: Policy | None = None
        self.res: tuple[float, float] | None = None  # (B, Wq) of last

    def _sync(self, pol: Policy, moved: int) -> None:
        """Bring step_buf from the previous call's policy to pol.

        A state changes segment only between the first and the last moved
        switching points, f and l: both policies agree on which points lie
        below a state at or below min(old k_f, new k_f), and on which lie
        above a state past max(old k_l, new k_l).  So an unhinted call
        rewrites just the states in between, taking each ratio from pol's
        segments; a +-1 move is a one-state range, and a fresh workspace
        fills (k_0, S].  l is the last index when that point moved, f when
        the tails after f agree, and otherwise found by a window of C-level
        tuple compares that doubles from the end and then halves, so a long
        unmoved tail costs no Python-level scan.  Short ranges are written
        state by state through the memoryview; past _LONG_RUN states, one
        np.repeat over the segment lengths is cheaper.
        """
        last = self.last
        self.last = pol
        if moved >= 0:
            if pol[moved] < last[moved]:
                self.step_mv[last[moved]] = self.rs[moved]
            elif moved > 0:
                self.step_mv[pol[moved]] = self.rs[moved - 1]
            # raising k_0 only shrinks the live range; no entry changes
            return
        if last is None:
            i, t, j, end = 0, pol[0], self.n - 1, self.s
        else:
            f = 0
            while pol[f] == last[f]:
                f += 1
            l = self.n - 1
            if pol[l] == last[l]:
                if pol[f + 1:] == last[f + 1:]:
                    l = f
                else:
                    # the tails from hi on agree; l lies in [hi - w, hi)
                    hi, w = l, 1
                    while pol[hi - w:hi] == last[hi - w:hi]:
                        hi -= w
                        w = 2 * w if 2 * w < hi - f else hi - f
                    l = hi - w
                    while hi - l > 1:
                        mid = (l + hi) // 2
                        if pol[mid:hi] == last[mid:hi]:
                            hi = mid
                        else:
                            l = mid
            # states t + 1..end change; t + 1 lies on segment i and end on
            # segment j of pol, segment i being (k_i, k_{i+1}]
            if f == 0 or pol[f] < last[f]:
                i, t = f, pol[f]
            else:
                i, t = f - 1, last[f]
            if pol[l] > last[l]:
                j, end = l - 1, pol[l]
            else:
                j, end = l, last[l]
        if end - t > _LONG_RUN:
            self.step_buf[t + 1:end + 1] = self.rs_arr[i:j + 1].repeat(
                np.diff((t, *pol[i + 1:j + 1], end)))
            return
        mv, rs = self.step_mv, self.rs
        while t < end:
            t += 1
            if t > pol[i + 1]:
                i += 1
            mv[t] = rs[i]

    def b_wq(self, pol: Policy, moved: int = -1) -> tuple[float, float]:
        if moved < 0 and pol == self.last:
            return self.res
        self._sync(pol, moved)
        k0 = pol[0]
        parts = self.views.get(k0)
        if parts is None:
            m = self.s - k0
            parts = (self.step_buf[k0 + 1:], self.ones_t[k0 + 1:], self.q_buf[:m], m)
            self.views[k0] = parts
        sv, ot, q, m = parts
        _accumulate(sv, out=q)
        mass, moment = q.dot(ot).tolist()
        tot = 1.0 + mass
        p_s = self.q_mv[m - 1] / tot
        big_l = (k0 + moment) / tot
        # flow balance: admissions lam*(1 - P(S)) match completions mu*F,
        # because the count never drops below the number of workers serving
        f = self.lam / self.mu * (1.0 - p_s)
        admitted = self.lam * (1.0 - p_s)
        wq = big_l / admitted - 1.0 / self.mu if admitted > 0.0 else math.inf
        self.res = res = (self.n - f, wq)
        return res


class _ModeWorkspace(_Workspace):
    """Workspace whose product is anchored at the mode, for wide instances.

    Once S * ln(lam/mu) is large, a product run forward from k_0 can
    overflow.  The mode of the distribution sits at p = k_{i*}, where i*
    counts the worker levels whose ratio lam/(i*mu) is at least one.  Here
    q(p) = 1, the product runs forward over the ratios above p and backward
    over the inverse ratios below it, so every partial product is at most
    one.  Whether a state lies at or below p depends only on its segment, so
    the ratio table stores inverses on the first i* segments and the shared
    patching code keeps step_buf right as k_{i*} moves.  q_buf[t + 1] holds
    q(t).

    A hinted move of an index below i* leaves p where it was and patches a
    state below p (k_moved < k_{i*}), so the forward half of q, above p, is
    still right in q_buf and only the backward half is recomputed.  P1's
    walks on wide instances make almost only such moves.
    """

    __slots__ = ("mode",)

    def __init__(self, inst: Instance):
        super().__init__(inst)
        rs = self.rs
        self.mode = sum(r >= 1.0 for r in rs)
        self.rs = [1.0 / r for r in rs[:self.mode]] + rs[self.mode:]
        self.rs_arr = np.array(self.rs)

    def b_wq(self, pol: Policy, moved: int = -1) -> tuple[float, float]:
        if moved < 0 and pol == self.last:
            return self.res
        self._sync(pol, moved)
        k0, p = pol[0], pol[self.mode]
        # per k_0, built for one p: the views stay valid while p holds still
        parts = self.views.get(k0)
        if parts is None or parts[0] != p:
            sb, qb = self.step_buf, self.q_buf
            parts = (p, sb[p + 1:], qb[p + 2:], sb[p:k0:-1], qb[p:k0:-1],
                     qb[k0 + 1:], self.ones_t[k0:])
            self.views[k0] = parts
        _, fwd_s, fwd_q, back_s, back_q, q, ot = parts
        if not 0 <= moved < self.mode:
            self.q_mv[p + 1] = 1.0
            _accumulate(fwd_s, out=fwd_q)
        _accumulate(back_s, out=back_q)
        tot, moment = q.dot(ot).tolist()
        p_s = self.q_mv[self.s + 1] / tot
        big_l = moment / tot
        # the base class's flow-balance tail, repeated so that its hot path
        # pays for no extra call
        f = self.lam / self.mu * (1.0 - p_s)
        admitted = self.lam * (1.0 - p_s)
        wq = big_l / admitted - 1.0 / self.mu if admitted > 0.0 else math.inf
        self.res = res = (self.n - f, wq)
        return res


@lru_cache(maxsize=32)
def _workspace(inst: Instance, thread: int) -> _Workspace:
    """The workspace of one instance for one thread; threads never share one."""
    if inst.lam > inst.mu and inst.S * math.log(inst.lam / inst.mu) > _CUMPROD_LIMIT:
        return _ModeWorkspace(inst)
    return _Workspace(inst)


def _fast_eval(inst: Instance):
    """The calling thread's bound vectorized evaluator for inst.

    Lets tight loops skip the per-call cache lookup in evaluate_b_wq and pass
    b_wq's ``moved`` hint.  Every instance has one: wide instances get the
    mode-anchored workspace.
    """
    return _workspace(inst, get_ident()).b_wq


# ---------------------------------------------------------------------------
# closed-form route: geometric series anchored at the switching points, in logs


def _log_geom_sum(r: float, n: int) -> float:
    """log of the sum of r**t for t in 0..n-1, n >= 1.

    expm1 keeps 1 - r**n accurate to a few ulps however close r lies to
    one, and factoring r**n out when r > 1 keeps every step in float range.
    """
    if r == 1.0:
        return math.log(n)
    y = n * math.log(r)
    if r < 1.0:
        return math.log(-math.expm1(y)) - math.log(1.0 - r)
    return y + math.log(-math.expm1(-y)) - math.log(r - 1.0)


def _log_geom_first_moment(r: float, n: int) -> float:
    """log of the sum of t * r**t for t in 0..n-1.

    The quotient form r * (m*d*r**m - (r**m - 1)) / d**2, with m = n - 1
    and d = r - 1, cancels quadratically as r nears one, so the window
    around it sums term by term.  Outside the window expm1 bounds the
    cancellation at about a thousand ulps at its edge, and r**m is factored
    out when r > 1.
    """
    if n <= 1:
        return -math.inf
    d = r - 1.0
    if abs(d) < _NEAR_ONE_TOL:
        return math.log(math.fsum(t * r ** t for t in range(1, n)))
    lr = math.log(r)
    y = (n - 1) * lr
    if r < 1.0:
        return lr + math.log((n - 1) * d * math.exp(y) - math.expm1(y)) - 2.0 * math.log(-d)
    return lr + y + math.log((n - 1) * d + math.expm1(-y)) - 2.0 * math.log(d)


def _logsumexp(xs: list[float]) -> float:
    m = max(xs)
    return m + math.log(math.fsum(math.exp(x - m) for x in xs))


def evaluate_closed_form(inst: Instance, pol: Policy) -> Metrics:
    """Evaluate a policy from geometric-series identities, in log space.

    With q(k_0) = 1, log q(k_{i+1}) = log q(k_i) + (k_{i+1} - k_i) * log r_i,
    where r_i = lam / ((i+1) mu) is the ratio on the states [k_i, k_{i+1}).
    Each such run of states carries q(k_i) times a geometric sum, and the
    normalizer is the logsumexp of those masses and q(S), so no power leaves
    float range.  The admitted share 1 - P(S) is the sum of the masses below
    S, not a subtraction from one, which would cancel when blocking is heavy.
    """
    validate_instance(inst)
    validate_policy(inst, pol)
    s, n, lam, mu = inst.S, inst.N, inst.lam, inst.mu
    rs = [lam / ((i + 1) * mu) for i in range(n)]
    lrs = [math.log(r) for r in rs]
    logq = [0.0]
    for i in range(n):
        logq.append(logq[i] + (pol[i + 1] - pol[i]) * lrs[i])
    logseg = [logq[i] + _log_geom_sum(rs[i], pol[i + 1] - pol[i]) for i in range(n)]
    logz = _logsumexp(logseg + [logq[n]])
    logpk = [v - logz for v in logq]
    psums = [math.exp(v - logz) for v in logseg]  # P of the states [k_i, k_{i+1})
    p = [0.0] * (s + 1)
    for i in range(n):
        for j in range(pol[i], pol[i + 1]):
            p[j] = math.exp(logpk[i] + (j - pol[i]) * lrs[i])
    p[s] = p_s = math.exp(logpk[n])
    # the states (k_i, k_{i+1}], served by i + 1 workers, carry r_i * psums[i]
    f = math.fsum((i + 1) * rs[i] * psums[i] for i in range(n))
    big_l = math.fsum([pol[i] * psums[i]
                       + math.exp(logpk[i] + _log_geom_first_moment(rs[i], pol[i + 1] - pol[i]))
                       for i in range(n)] + [s * p_s])
    admitted = lam * math.fsum(psums) if p_s < 1.0 else 0.0
    wq = big_l / admitted - 1.0 / mu if admitted > 0.0 else math.inf
    return Metrics(p=p, F=f, B=n - f, L=big_l, Wq=wq, pBlock=p_s)


def evaluate_b_wq(inst: Instance, pol: Policy) -> tuple[float, float]:
    """B and Wq only; the fast path for search and heuristics.

    Runs the balance recursion as cumulative products over reusable buffers
    that belong to the instance and the calling thread.  The product starts
    at k_0, or, when S * ln(lam/mu) is large enough that it could overflow
    from there, at the mode of the distribution, so every instance stays on
    this route.  Skips validation and the distribution vector; callers pass
    trusted policies.
    """
    return _workspace(inst, get_ident()).b_wq(pol)
