"""Shared fixtures and samplers for the test suite.

The frozen numbers below were first computed with an independent scratch
implementation (plain balance recursion, exact-fraction arithmetic for the
series, literal enumeration) and then pinned to this package's output, which
agrees with the scratch values to a couple of ulps.
"""

import math
import random

import pytest

from switchq import (GenSpec, Instance, evaluate_b_wq, generate, max_backroom_policy,
                     min_wait_policy)
from switchq.core import _Workspace
from switchq.policies import brute_force_optimum
import switchq.solver as solver_mod
from switchq.solver import _ROOT, SolverConfig, solve

# canonical worked example: S=6, N=3, lam=15, mu=3, Bl=0.32
EXAMPLE = Instance(S=6, N=3, lam=15.0, mu=3.0, Bl=0.32)
OPT_POLICY = (0, 3, 4, 6)
WQ_OPT = 0.3063230008984726          # direct-recursion route
WQ_OPT_CLOSED = 0.3063230008984728   # closed-form route, in logs: four ulps away

# B and Wq for hand-picked policies on EXAMPLE, frozen at seven digits
GOLDEN_B_WQ = {
    (0, 1, 2, 6): (0.1116577, 0.2222534),
    (3, 4, 5, 6): (0.6483051, 0.4252252),
    (0, 1, 5, 6): (0.5089922, 0.3609876),
    (0, 4, 5, 6): (0.6317119, 0.4167556),
    (2, 3, 4, 6): (0.3443361, 0.3098870),
    (1, 2, 3, 6): (0.1932903, 0.2542136),
}

DESK_SPEC = GenSpec(s_values=(10, 12, 14, 16, 18), per_s_count=40, seed=20250823)
TALL_SPEC = GenSpec(s_values=(60, 80, 100), per_s_count=3, seed=71)

_LOG_SPACE_LIMIT = 300.0  # exponent * |ln ratio| beyond this: plain powers strain float range


def rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    """Closeness relative to the larger magnitude, absolute below one."""
    if a == b:
        return True
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def random_instance(rng: random.Random, s_lo: int = 2, s_hi: int = 100) -> Instance:
    s = rng.randint(s_lo, s_hi)
    n = rng.randint(1, s)
    return Instance(S=s, N=n, lam=rng.uniform(0.2, 120.0),
                    mu=rng.uniform(0.2, 60.0), Bl=rng.uniform(0.0, n))


def random_policy(rng: random.Random, inst: Instance) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(inst.S), inst.N))) + (inst.S,)


# heavy blocking (ROADMAP Direction 9): the all-late policy's exact B lies
# below Bl, so nothing is feasible, but an admitted share taken as 1 - P(S)
# cancels and lifts that policy's B above Bl
HEAVY_BLOCKING_INFEASIBLE = (
    Instance(S=14, N=1, lam=191632210044.58517, mu=4.233670978508806, Bl=6.527762252689074e-07),
    Instance(S=6, N=2, lam=933039882910.346, mu=1.588664805185247, Bl=2.2420145895624658e-05),
)


_NEAR_ONE_DELTAS = (0.0, 1e-14, -1e-14, 1e-9, -1e-9, 3e-7, -3e-7, 1e-5, -1e-5,
                    4e-4, -4e-4)


def near_unit_pair(rng: random.Random) -> tuple[Instance, tuple[int, ...]]:
    """Instance and policy with lam/(i*mu) within a hair of one on some segment."""
    base = random_instance(rng, 3, 100)
    i = rng.randint(1, base.N)
    lam = i * base.mu * (1.0 + rng.choice(_NEAR_ONE_DELTAS))
    inst = Instance(S=base.S, N=base.N, lam=lam, mu=base.mu, Bl=base.Bl)
    return inst, random_policy(rng, inst)


def log_space_pair(rng: random.Random) -> tuple[Instance, tuple[int, ...]]:
    """Instance and policy whose closed forms strain float range outside logs."""
    s = rng.randint(40, 100)
    n = rng.randint(1, min(s - 1, 20))
    mu = rng.uniform(0.01, 1.0)
    lam = mu * math.exp(rng.uniform(4.0, 12.0) * rng.choice((1.0, -1.0)))
    inst = Instance(S=s, N=n, lam=lam, mu=mu, Bl=rng.uniform(0.0, n))
    return inst, random_policy(rng, inst)


REGIMES = ("wide", "near-one", "heavy", "light", "tall")


def regime_instance(rng: random.Random, regime: str) -> Instance:
    """An instance of one evaluator regime, with Bl between the extreme
    policies' B, so that search has work to do.  Policy spaces stay at or
    below C(128, 2) = 8,128 members, small enough for brute force:

    - wide: S * ln(lam/mu) of 720-900, past the mode-anchored workspace's
      threshold of 600 and past float range for a plain product;
    - near-one: lam / (i mu) within 1e-3 of one for some i <= N;
    - heavy: lam of 8-40 times N mu, so most arrivals are blocked;
    - light: lam of 0.5-10% of mu;
    - tall: S of 100-128 with N = 2.
    """
    mu = rng.uniform(0.5, 2.0)
    if regime in ("wide", "tall"):
        s, n = rng.randint(100, 128), 2
        lam = mu * (math.exp(rng.uniform(720.0, 900.0) / s) if regime == "wide"
                    else rng.uniform(0.5, 3.0))
    else:
        n = rng.randint(2, 4)
        s = rng.randint(n + 6, 24)
        if regime == "near-one":
            lam = rng.randint(1, n) * mu * (1.0 + rng.choice(_NEAR_ONE_DELTAS))
        elif regime == "heavy":
            lam = n * mu * rng.uniform(8.0, 40.0)
        else:
            lam = mu * rng.uniform(0.005, 0.1)
    base = Instance(S=s, N=n, lam=lam, mu=mu, Bl=0.0)
    lo = evaluate_b_wq(base, min_wait_policy(base))[0]
    hi = evaluate_b_wq(base, max_backroom_policy(base))[0]
    return Instance(S=s, N=n, lam=lam, mu=mu, Bl=lo + rng.uniform(0.1, 0.9) * (hi - lo))


def _needs_log_space(inst: Instance, pol: tuple[int, ...]) -> bool:
    """True when some power in the closed forms would strain float range.

    The closed form works in log space for every pair; this sorts sampled
    pairs into the extreme regime that plain arithmetic could not handle.
    """
    lam, mu = inst.lam, inst.mu
    llm = abs(math.log(lam / mu))
    lx = 0.0
    for i in range(1, inst.N + 1):
        if (pol[i - 1] - pol[0] + 1) * llm > _LOG_SPACE_LIMIT:
            return True
        r = lam / (i * mu)
        if (pol[i] - pol[i - 1]) * abs(math.log(r)) > _LOG_SPACE_LIMIT:
            return True
        if i >= 2:
            lx += (pol[i - 1] - pol[i - 2]) * math.log(i - 1)
            if lx > _LOG_SPACE_LIMIT:
                return True
    return False


# references for search's carried arithmetic (``solver._Corners``)


def _child(corners, parent, d, a, v):
    """Reference for search's inline step: the carried prefix of parent,
    which ends with k_{d-1} = a, and k_d = v.  Row d already holds entry
    v - a: the parent's upward completion, built before any child, reached
    k_d = hi[d] >= v."""
    p, sc, g1, g2 = corners.seg[d][v - a]
    q, m, w = parent
    return q * p, m * sc + q * g1, w * sc + q * (a * g1 + g2)


def _corner_b_wq(corners, prefix, completion):
    """Reference for search's inline corner: B and Wq of the corner that
    completion makes of prefix, by the workspace's formulas on its mass
    below S."""
    inst = corners.inst
    q, m, w = prefix
    al, bb, ga, si = completion
    below = m * al + q * bb
    wq = (w * al + q * ga) / below / inst.lam - 1.0 / inst.mu if below > 0.0 else math.inf
    return inst.N - inst.lam / inst.mu * (below / (below + q * si)), wq


def _carried(corners, head):
    """The prefix search carries for head, and its last value; as in search,
    each node's upward completion is built before its child."""
    prefix, a = _ROOT, -1
    for d, v in enumerate(head):
        corners.complete(corners.upper, d, a)
        prefix, a = _child(corners, prefix, d, a, v), v
    return prefix, a


@pytest.fixture(scope="session")
def example() -> Instance:
    return EXAMPLE


@pytest.fixture(scope="session")
def desk_suite() -> list[Instance]:
    return generate(DESK_SPEC)


@pytest.fixture(scope="session")
def desk_brute(desk_suite):
    return [brute_force_optimum(inst) for inst in desk_suite]


@pytest.fixture(scope="session")
def desk_pure(desk_suite):
    """One alt-search-shave run per desk instance, shared across tests."""
    return [solve(inst, SolverConfig(strategy="alt-search-shave"))
            for inst in desk_suite]


@pytest.fixture(scope="session")
def tall_suite() -> list[Instance]:
    return generate(TALL_SPEC)


@pytest.fixture
def b_wq_calls(monkeypatch) -> list[int]:
    """One-entry counter of the workspace ``b_wq`` calls, the evaluations
    actually computed, that the test makes; it may reset the entry."""
    calls = [0]

    def counting(method):
        def wrapper(self, pol):
            calls[0] += 1
            return method(self, pol)
        return wrapper

    monkeypatch.setattr(_Workspace, "b_wq", counting(_Workspace.b_wq))
    return calls


@pytest.fixture
def eval_calls(monkeypatch, b_wq_calls) -> list[int]:
    """Two-entry counter of the solver's ``_eval`` calls, the evaluations of
    the probes and the extreme policies: [calls, workspace ``b_wq`` calls made
    inside them].  The second falls short of the first by the memo's hits;
    search's corners and its evaluations of improving leaves are in neither.
    The test may reset the entries."""
    calls = [0, 0]
    inner = solver_mod._eval

    def counting(inst, pol, stats):
        before = b_wq_calls[0]
        out = inner(inst, pol, stats)
        calls[0] += 1
        calls[1] += b_wq_calls[0] - before
        return out

    monkeypatch.setattr(solver_mod, "_eval", counting)
    return calls
