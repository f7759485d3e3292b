"""Enumeration tests: counting, ordering, brute-force reference answers."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (EXAMPLE, HEAVY_BLOCKING_INFEASIBLE, OPT_POLICY, WQ_OPT, random_instance,
                      random_policy)
from switchq import (ENUMERATION_LIMIT, Instance, brute_force_optimum,
                     evaluate_direct, is_feasible, iter_policies,
                     max_backroom_policy, min_wait_policy, policy_count)
from switchq.core import EPS_B, _segment_tables, validate_policy
from switchq.policies import _screen, _ScreenTables


def test_policy_count_matches_enumeration():
    rng = random.Random(3)
    for _ in range(20):
        inst = random_instance(rng, 2, 9)
        pols = list(iter_policies(inst))
        assert len(pols) == policy_count(inst) == math.comb(inst.S, inst.N)
        assert len(set(pols)) == len(pols)
        for pol in pols:
            validate_policy(inst, pol)


def test_enumeration_is_lexicographic():
    pols = list(iter_policies(EXAMPLE))
    assert pols == sorted(pols)
    assert pols[0] == min_wait_policy(EXAMPLE)
    assert pols[-1] == max_backroom_policy(EXAMPLE)
    assert len(pols) == 20


def test_brute_force_on_example():
    pol, wq = brute_force_optimum(EXAMPLE)
    assert pol == OPT_POLICY
    assert abs(wq - WQ_OPT) < 1e-15
    m = evaluate_direct(EXAMPLE, pol)
    assert is_feasible(m, EXAMPLE)


def test_brute_force_infeasible_returns_none():
    assert brute_force_optimum(Instance(S=6, N=3, lam=15.0, mu=3.0, Bl=2.9)) is None


def test_brute_force_picks_feasible_minimum():
    rng = random.Random(7)
    for _ in range(40):
        inst = random_instance(rng, 2, 10)
        found = brute_force_optimum(inst)
        table = [(pol, evaluate_direct(inst, pol)) for pol in iter_policies(inst)]
        feas = [(pol, m.Wq) for pol, m in table if is_feasible(m, inst)]
        if not feas:
            assert found is None
            continue
        best_wq = min(wq for _, wq in feas)
        pol, wq = found
        assert abs(wq - best_wq) <= 1e-12 * max(1.0, best_wq)
        near = {p for p, w in feas if w <= best_wq + 1e-9}
        assert pol in near


def test_brute_force_refuses_huge_spaces():
    inst = Instance(S=100, N=30, lam=5.0, mu=1.0, Bl=1.0)
    assert policy_count(inst) > ENUMERATION_LIMIT
    with pytest.raises(ValueError, match="enumeration limit"):
        brute_force_optimum(inst)


def _scalar_brute_force(inst, eps_b=EPS_B):
    """The one-policy-at-a-time judge: the direct oracle on every policy in
    lexicographic order, keeping strict improvements only."""
    target = inst.Bl - eps_b
    best, best_wq = None, math.inf
    for pol in iter_policies(inst):
        m = evaluate_direct(inst, pol)
        if m.B >= target and m.Wq < best_wq:
            best, best_wq = pol, m.Wq
    return None if best is None else (best, best_wq)


def _knife_edge(rng, inst):
    """The instance with Bl set to the direct oracle's B of a random policy."""
    b = evaluate_direct(inst, random_policy(rng, inst)).B
    return Instance(S=inst.S, N=inst.N, lam=inst.lam, mu=inst.mu, Bl=b)


def test_brute_force_matches_scalar_reference():
    rng = random.Random(29)
    cases = [(random_instance(rng, 2, 12), EPS_B) for _ in range(200)]
    for _ in range(60):
        cases.append((_knife_edge(rng, random_instance(rng, 2, 12)), rng.choice((0.0, EPS_B))))
    # spaces that span many screening blocks
    cases += [(Instance(S=40, N=4, lam=6.0, mu=1.5, Bl=1.0), EPS_B),
              (_knife_edge(rng, Instance(S=40, N=3, lam=6.0, mu=1.5, Bl=1.0)), 0.0)]
    for s in (1, 2, 9, 30):
        cases += [(Instance(S=s, N=1, lam=3.0, mu=1.0, Bl=0.2), EPS_B),
                  (Instance(S=s, N=s, lam=3.0, mu=1.0, Bl=0.2), EPS_B)]
    # every state past k_0 + 1 underflows, so all policies sharing k_0 tie
    # exactly and only the tie rule picks the answer
    cases.append((Instance(S=8, N=3, lam=1e-200, mu=1.0, Bl=1.0), EPS_B))
    wide = Instance(S=1000, N=1, lam=1.9, mu=1.0, Bl=0.1)
    assert wide.S * math.log(wide.lam / wide.mu) > 600
    cases += [(wide, EPS_B), (_knife_edge(rng, wide), 0.0)]
    # heavy blocking: lam at 8-40 times N * mu, so most arrivals find S full;
    # each with a target below the all-late policy's B and a knife edge
    heavy = []
    for _ in range(40):
        s = rng.randint(3, 12)
        n = rng.randint(1, s)
        mu = rng.uniform(0.2, 60.0)
        inst = Instance(S=s, N=n, lam=rng.uniform(8.0, 40.0) * n * mu, mu=mu, Bl=0.0)
        top = evaluate_direct(inst, max_backroom_policy(inst)).B
        heavy += [(Instance(S=s, N=n, lam=inst.lam, mu=mu, Bl=rng.uniform(0.0, top)), EPS_B),
                  (_knife_edge(rng, inst), 0.0)]
    cases += heavy
    feasible = 0
    for inst, eps_b in cases:
        want = _scalar_brute_force(inst, eps_b)
        got = brute_force_optimum(inst, eps_b=eps_b)
        assert got == want, inst
        if got is not None:
            feasible += 1
            assert all(type(v) is int for v in got[0]) and type(got[1]) is float
    assert feasible > len(cases) // 2
    blocked = [evaluate_direct(inst, brute_force_optimum(inst, eps_b=eps_b)[0]).pBlock
               for inst, eps_b in heavy]
    assert min(blocked) > 0.5 and max(blocked) > 0.9, (min(blocked), max(blocked))


def test_segment_tables_match_exact_sums():
    # the screen's tables: one row per worker level, all to the same length
    length = 60
    for rho in (1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-3, 1.0 - 1e-3, 1e3, 1e-3):
        (log_sum,), (offset,) = _segment_tables([math.log(rho)], [length])
        assert log_sum[0] == -math.inf and offset[0] == 0.0
        r = Fraction(rho)
        total = moment = Fraction(0)
        for t in range(1, length + 1):
            total += r ** t
            moment += t * r ** t
            assert abs(Fraction(math.exp(log_sum[t])) / total - 1) <= 1e-12, (rho, t)
            assert abs(Fraction(offset[t]) / (moment / total) - 1) <= 1e-12, (rho, t)


def _screen_every_policy(inst):
    """The screen's (B, Wq low, Wq high) for every policy, in one block."""
    tables = _ScreenTables(inst)
    fronts = np.array([pol[:-1] for pol in iter_policies(inst)], dtype=np.intp)
    rows = len(fronts)
    points = np.column_stack((fronts[:, 0] - 1, fronts, np.full(rows, inst.S - 1),
                              np.full(rows, inst.S)))
    return tables, _screen(inst, points, tables)


def test_screen_bounds_the_direct_oracle():
    rng = random.Random(41)
    cases = [random_instance(rng, 2, 12) for _ in range(30)]
    cases += [_knife_edge(rng, random_instance(rng, 2, 12)) for _ in range(10)]
    # heavy blocking: lam / mu from 1e6 to 1e12
    for _ in range(20):
        s = rng.randint(2, 12)
        mu = rng.uniform(0.2, 60.0)
        cases.append(Instance(S=s, N=rng.randint(1, s), lam=mu * 10.0 ** rng.uniform(6.0, 12.0),
                              mu=mu, Bl=0.0))
    cases += list(HEAVY_BLOCKING_INFEASIBLE)
    cases += [Instance(S=8, N=3, lam=1e-200, mu=1.0, Bl=1.0),
              Instance(S=1000, N=1, lam=1.9, mu=1.0, Bl=0.1)]
    for inst in cases:
        tables, (b, wq_lo, wq_hi) = _screen_every_policy(inst)
        b_err = tables.tol * inst.N
        for r, pol in enumerate(iter_policies(inst)):
            m = evaluate_direct(inst, pol)
            assert abs(b[r] - m.B) <= b_err, (inst, pol)
            assert wq_lo[r] <= m.Wq <= wq_hi[r], (inst, pol)


def test_brute_force_matches_scalar_reference_where_blocking_rounds_to_one():
    # lam / mu from 1e13 to 1e22: for many policies P(S) rounds to one, the
    # direct oracle's Wq is infinite and the screen's bound stays finite
    rng = random.Random(43)
    rounded = 0
    for _ in range(30):
        s = rng.randint(2, 8)
        n = rng.randint(1, s)
        mu = rng.uniform(0.2, 60.0)
        inst = Instance(S=s, N=n, lam=mu * 10.0 ** rng.uniform(13.0, 22.0), mu=mu, Bl=0.0)
        b = evaluate_direct(inst, random_policy(rng, inst)).B
        rounded += any(math.isinf(evaluate_direct(inst, pol).Wq) for pol in iter_policies(inst))
        for case in (inst, Instance(S=s, N=n, lam=inst.lam, mu=mu, Bl=b)):
            for eps_b in (0.0, EPS_B):
                assert brute_force_optimum(case, eps_b=eps_b) == _scalar_brute_force(case, eps_b)
    assert rounded > 10
