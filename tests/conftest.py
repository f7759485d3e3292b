"""Shared fixtures and samplers for the test suite.

The frozen numbers below were first computed with an independent scratch
implementation (plain balance recursion, exact-fraction arithmetic for the
series, literal enumeration) and then pinned to this package's output, which
agrees with the scratch values to a couple of ulps.
"""

import math
import random

import pytest

from switchq import GenSpec, Instance, generate
from switchq.policies import brute_force_optimum
from switchq.solver import SolverConfig, solve

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
