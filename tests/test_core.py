"""Evaluator tests: validation, golden values, route agreement, stability."""

import dataclasses
import itertools
import math
import pickle
import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from conftest import (EXAMPLE, GOLDEN_B_WQ, HEAVY_BLOCKING_INFEASIBLE, _carried, _corner_b_wq,
                      _needs_log_space, log_space_pair, near_unit_pair, random_instance,
                      random_policy, rel_close)
from switchq import (DomainStore, Instance, brute_force_optimum, evaluate_b_wq,
                     evaluate_closed_form, evaluate_direct, is_feasible,
                     max_backroom_policy, min_wait_policy, read_instances, run_p1,
                     validate_instance, validate_policy)
from switchq.core import (_CUMPROD_LIMIT, _LONG_RUN, _segment_tables, _Workspace,
                          _workspace)
from switchq.solver import (_MEMO_MAX_LEN, _MEMO_SIZE, SearchStats, SolverConfig, _Corners,
                            _eval, gmax, gmin, solve)


def test_validate_instance_accepts_example():
    validate_instance(EXAMPLE)


@pytest.mark.parametrize("bad", [
    Instance(S=0, N=1, lam=1.0, mu=1.0, Bl=0.0),
    Instance(S=5, N=0, lam=1.0, mu=1.0, Bl=0.0),
    Instance(S=5, N=6, lam=1.0, mu=1.0, Bl=0.0),
    Instance(S=5, N=2, lam=0.0, mu=1.0, Bl=0.0),
    Instance(S=5, N=2, lam=1.0, mu=-2.0, Bl=0.0),
    Instance(S=5, N=2, lam=math.inf, mu=1.0, Bl=0.0),
    Instance(S=5, N=2, lam=1.0, mu=math.nan, Bl=0.0),
    Instance(S=5, N=2, lam=1.0, mu=1.0, Bl=-0.1),
    Instance(S=5, N=2, lam=1.0, mu=1.0, Bl=2.1),
    Instance(S=5.0, N=2, lam=1.0, mu=1.0, Bl=0.0),
    Instance(S=True, N=1, lam=1.0, mu=1.0, Bl=0.0),
])
def test_validate_instance_rejects(bad):
    with pytest.raises(ValueError):
        validate_instance(bad)


@pytest.mark.parametrize("pol", [
    (0, 1, 6), (0, 1, 2, 3, 6), (0, 1, 2, 5), (-1, 1, 2, 6), (0, 2, 2, 6),
    (3, 2, 4, 6), (0, 1.0, 2, 6), (0, True, 2, 6),
])
def test_validate_policy_rejects(pol):
    with pytest.raises(ValueError):
        validate_policy(EXAMPLE, pol)


def test_extreme_policies():
    assert min_wait_policy(EXAMPLE) == (0, 1, 2, 6)
    assert max_backroom_policy(EXAMPLE) == (3, 4, 5, 6)
    rng = random.Random(5)
    for _ in range(50):
        inst = random_instance(rng, 2, 40)
        validate_policy(inst, min_wait_policy(inst))
        validate_policy(inst, max_backroom_policy(inst))


def test_golden_example_values():
    for pol, (b, wq) in GOLDEN_B_WQ.items():
        for ev in (evaluate_direct, evaluate_closed_form):
            m = ev(EXAMPLE, pol)
            assert abs(m.B - b) < 5e-8, (pol, ev.__name__)
            assert abs(m.Wq - wq) < 5e-8, (pol, ev.__name__)


def test_feasibility_threshold():
    m = evaluate_direct(EXAMPLE, (2, 3, 4, 6))
    assert is_feasible(m, EXAMPLE)
    assert not is_feasible(evaluate_direct(EXAMPLE, (0, 1, 2, 6)), EXAMPLE)
    at_target = Instance(S=6, N=3, lam=15.0, mu=3.0, Bl=m.B)
    assert is_feasible(m, at_target)


def test_distribution_shape():
    rng = random.Random(11)
    for _ in range(200):
        inst = random_instance(rng, 2, 60)
        pol = random_policy(rng, inst)
        m = evaluate_direct(inst, pol)
        assert all(v == 0.0 for v in m.p[:pol[0]])
        assert all(v >= 0.0 for v in m.p)
        assert abs(math.fsum(m.p) - 1.0) < 1e-12
        assert m.pBlock == m.p[inst.S]
        assert rel_close(m.L, math.fsum(j * pj for j, pj in enumerate(m.p)), 1e-12)
        assert rel_close(m.F + m.B, inst.N, 1e-12)
        assert 0.0 <= m.F <= inst.N + 1e-12
        assert m.Wq >= -1e-12


def test_single_state_chain():
    # S = N with the all-early policy pins the chain to ever-growing service
    inst = Instance(S=3, N=3, lam=2.0, mu=5.0, Bl=0.0)
    m = evaluate_direct(inst, (0, 1, 2, 3))
    assert rel_close(m.B + m.F, 3.0, 1e-12)
    assert abs(math.fsum(m.p) - 1.0) < 1e-12


def test_mm1s_special_case():
    # one worker always serving collapses to the classic single-server loss queue
    lam, mu, s = 3.0, 4.0, 7
    inst = Instance(S=s, N=1, lam=lam, mu=mu, Bl=0.0)
    r = lam / mu
    z = sum(r ** j for j in range(s + 1))
    expect_p = [r ** j / z for j in range(s + 1)]
    for ev in (evaluate_direct, evaluate_closed_form):
        m = ev(inst, (0, s))
        for j in range(s + 1):
            assert rel_close(m.p[j], expect_p[j], 1e-12)
        big_l = sum(j * p for j, p in enumerate(expect_p))
        assert rel_close(m.L, big_l, 1e-12)
        assert rel_close(m.Wq, big_l / (lam * (1 - expect_p[s])) - 1 / mu, 1e-12)


def test_routes_agree_generic():
    rng = random.Random(23)
    for _ in range(1500):
        inst = random_instance(rng)
        pol = random_policy(rng, inst)
        md = evaluate_direct(inst, pol)
        mc = evaluate_closed_form(inst, pol)
        assert rel_close(md.F, mc.F)
        assert rel_close(md.B, mc.B)
        assert rel_close(md.L, mc.L)
        assert rel_close(md.Wq, mc.Wq)
        assert rel_close(md.pBlock, mc.pBlock)


def test_routes_agree_near_unit_ratio():
    rng = random.Random(29)
    for _ in range(400):
        inst, pol = near_unit_pair(rng)
        md = evaluate_direct(inst, pol)
        mc = evaluate_closed_form(inst, pol)
        assert rel_close(md.B, mc.B)
        assert rel_close(md.Wq, mc.Wq)
        assert rel_close(md.L, mc.L)


def test_routes_agree_log_space():
    rng = random.Random(31)
    hits = 0
    for _ in range(300):
        inst, pol = log_space_pair(rng)
        hits += _needs_log_space(inst, pol)
        md = evaluate_direct(inst, pol)
        mc = evaluate_closed_form(inst, pol)
        assert rel_close(md.B, mc.B)
        assert rel_close(md.Wq, mc.Wq)
        for i in range(inst.N + 1):
            assert rel_close(md.p[pol[i]], mc.p[pol[i]])
    assert hits > 50


def test_rescaling_survives_extreme_drift():
    # long climbs and descents overflow a naive product but not these routes
    for lam, mu in ((60.0, 3.0), (3.0, 60.0)):
        inst = Instance(S=400, N=5, lam=lam, mu=mu, Bl=0.0)
        pol = (4, 90, 180, 270, 360, 400)
        md = evaluate_direct(inst, pol)
        mc = evaluate_closed_form(inst, pol)
        assert math.isfinite(md.L) and math.isfinite(mc.L)
        assert rel_close(md.B, mc.B)
        assert rel_close(md.Wq, mc.Wq)


def test_blocked_solid_returns_infinite_wait():
    inst = Instance(S=2, N=1, lam=1e300, mu=1.0, Bl=0.0)
    for ev in (evaluate_direct, evaluate_closed_form):
        m = ev(inst, (0, 2))
        assert m.pBlock == 1.0 and m.Wq == math.inf


def test_direct_b_is_never_negative_under_extreme_blocking():
    # B sums the idle workers of each state, so it cannot fall below zero;
    # taken as N - F it read -8.9e-16 here, a Bl that fails validation
    inst = Instance(S=10, N=4, lam=1.4022172612485054e+16, mu=26.956007674561086, Bl=0.0)
    pol = (0, 1, 2, 8, 10)
    b = evaluate_direct(inst, pol).B
    assert b >= 0.0
    validate_instance(dataclasses.replace(inst, Bl=b))
    assert rel_close(b, _exact_b_wq(inst, pol)[0], 1e-12)
    assert rel_close(evaluate_b_wq(inst, pol)[0], b, 1e-12)


def test_closed_form_b_is_never_negative_under_extreme_blocking():
    # B sums the idle workers of each column, so it cannot fall below zero;
    # taken as N - F it read -7.5e-15 on the first pair, against an exact
    # 5.5e-105, and fell below zero on many of the sampled ones
    inst = Instance(S=14, N=1, lam=3.3205052253491834e+17, mu=1.3937008714357235, Bl=0.0)
    cases = [(inst, (8, 14))]
    rng = random.Random(61)
    for _ in range(300):
        s = rng.randint(3, 14)
        n = rng.randint(1, min(4, s))
        mu = rng.uniform(0.2, 60.0)
        inst = Instance(S=s, N=n, lam=mu * 10.0 ** rng.uniform(6.0, 22.0), mu=mu, Bl=0.0)
        cases.append((inst, random_policy(rng, inst)))
    for k, (inst, pol) in enumerate(cases):
        b = evaluate_closed_form(inst, pol).B
        assert b >= 0.0, (inst, pol, b)
        validate_instance(dataclasses.replace(inst, Bl=b))
        if k == 0:
            exact = _exact_b_wq(inst, pol)[0]
            assert abs(b - exact) <= 1e-12 * exact, (b, exact)


def test_workspace_b_is_never_negative_under_extreme_blocking():
    # taken as N - (lam/mu) * (1 - P(S)), B read -4.4e-16 here against an
    # exact 5.9e-48; the workspace clamps it at zero, and so do the walk's
    # steps, so either gives a Bl that validates
    inst = Instance(S=7, N=3, lam=3027424466838.017, mu=1.5739851748698983, Bl=0.0)
    b = evaluate_b_wq(inst, (0, 2, 3, 7))[0]
    assert b >= 0.0
    validate_instance(dataclasses.replace(inst, Bl=b))
    for st in run_p1(inst, trace=True).trace:
        assert st.B >= 0.0, st
        validate_instance(dataclasses.replace(inst, Bl=st.B))


def test_b_is_never_below_the_flow_bound():
    # flow balance: F = (lam/mu)(1 - P(S)) <= lam/mu, so every policy has
    # B >= N - lam/mu.  The workspace forms B as N - (lam/mu) * share with a
    # share of at most one, so the bound holds with no tolerance; generate
    # rejects draws on it before evaluating anything
    rng = random.Random(67)
    cases = []
    for _ in range(5000):
        s = rng.randint(1, 400)
        n = rng.randint(1, s)
        mu = rng.uniform(0.2, 60.0)
        inst = Instance(S=s, N=n, lam=mu * 10.0 ** rng.uniform(-8.0, 12.0), mu=mu, Bl=0.0)
        cases += [(inst, random_policy(rng, inst)) for _ in range(4)]
    for inst in HEAVY_BLOCKING_INFEASIBLE:
        cases += [(inst, head + (inst.S,))
                  for head in itertools.combinations(range(inst.S), inst.N)]
    wide = long_fill = 0
    for inst, pol in cases:
        assert evaluate_b_wq(inst, pol)[0] >= inst.N - inst.lam / inst.mu, (inst, pol)
        wide += inst.lam > inst.mu and inst.S * math.log(inst.lam / inst.mu) > _CUMPROD_LIMIT
        long_fill += inst.S - pol[0] > _LONG_RUN
    # both anchors of the workspace and both of its fills
    assert len(cases) > 20_000 and 2_000 < wide < 18_000 and 2_000 < long_fill < 18_000


def test_overflowing_load_is_rejected(tmp_path):
    # lam / mu = 1e310 leaves float range: the direct recursion and the
    # workspace read B = nan there, so every entry point refuses it
    inst = Instance(S=3, N=1, lam=1e300, mu=1e-10, Bl=0.0)
    for entry in (validate_instance, solve, run_p1, brute_force_optimum):
        with pytest.raises(ValueError, match="lam / mu must be finite"):
            entry(inst)
    path = tmp_path / "over.txt"
    path.write_text("# S N lam mu Bl\n3 1 1" + "0" * 300 + ".0 0.0000000001 0.0\n",
                    encoding="ascii")
    with pytest.raises(ValueError, match="line 2: lam / mu must be finite"):
        read_instances(path)


def _exact_b_wq(inst: Instance, pol: tuple[int, ...]) -> tuple[float, float]:
    """B and Wq from the balance recursion in exact rational arithmetic."""
    lam, mu = Fraction(inst.lam), Fraction(inst.mu)
    q = {pol[0]: Fraction(1)}
    for i in range(1, inst.N + 1):
        for j in range(pol[i - 1] + 1, pol[i] + 1):
            q[j] = q[j - 1] * lam / (i * mu)
    z = sum(q.values())
    f = sum(i * q[j] for i in range(1, inst.N + 1) for j in range(pol[i - 1] + 1, pol[i] + 1)) / z
    big_l = sum(j * v for j, v in q.items()) / z
    admitted = lam * (z - q[inst.S]) / z
    return float(inst.N - f), float(big_l / admitted - 1 / mu)


def test_closed_form_is_exact_under_heavy_blocking():
    # nearly every arrival is lost, so 1 - P(S) is tiny: both oracles, the
    # workspace at either anchor, the P1 walk's inline steps and search's
    # carried corners sum the mass below S rather than subtracting P(S)
    # from one
    rng = random.Random(59)
    anchors = [0, 0]  # pairs evaluated with the product anchored at k_0, at the mode
    walked = [0, 0]
    cornered = 0
    for t in range(200):
        s = rng.randint(3, 40)
        n = rng.randint(1, min(6, s))
        mu = rng.uniform(0.2, 5.0)
        inst = Instance(S=s, N=n, lam=mu * 10.0 ** rng.uniform(3.0, 12.0), mu=mu, Bl=0.0)
        pol = random_policy(rng, inst)
        b, wq = _exact_b_wq(inst, pol)
        ws = _Workspace(inst)
        anchors[ws.a > 0] += 1
        got = [(ev.__name__, ev(inst, pol)) for ev in (evaluate_closed_form, evaluate_direct)]
        got = [(name, m.B, m.Wq) for name, m in got] + [("b_wq", *ws.b_wq(pol))]
        for name, mb, mwq in got:
            assert rel_close(mb, b, 1e-12), (name, inst, pol)
            assert rel_close(mwq, wq, 1e-12), (name, inst, pol, mwq, wq)
            if name != "b_wq" and b > 1e-300:
                # rel_close is absolute below one; the oracles' B is
                # accurate relative to its own size
                assert abs(mb - b) <= 1e-12 * b, (name, inst, pol, mb, b)
        # the carried upward corner of each prefix of pol, and the downward
        # one of each but the leaf: B within 1e-12, Wq within 1e-12 of
        # itself, or of the service time 1/mu where it is exactly zero
        store = DomainStore.initial(inst)
        corners = _Corners(inst, store)
        for d in range(n + 1):
            prefix, a = _carried(corners, pol[:d])
            for rows, corner in [(corners.upper, gmax)] + [(corners.lower, gmin)] * (d < n):
                cb, cwq = _corner_b_wq(corners, prefix, corners.complete(rows, d, a))
                b, wq = _exact_b_wq(inst, corner(inst, store, pol[:d]))
                assert abs(cb - b) <= 1e-12 and abs(cwq - wq) <= 1e-12 * (wq or 1.0 / inst.mu), \
                    (inst, pol[:d], cb, b, cwq, wq)
                cornered += 1
        if t % 5 == 0:
            # every step of a walk with Bl at half the all-late policy's B;
            # on the k_0 anchor most of them break the requirement and repair it
            late = _exact_b_wq(inst, max_backroom_policy(inst))[0]
            res = run_p1(dataclasses.replace(inst, Bl=late / 2), trace=True)
            for st in res.trace:
                b, wq = _exact_b_wq(inst, st.policy)
                assert rel_close(st.B, b, 1e-12), (inst, st)
                assert rel_close(st.Wq, wq, 1e-12), (inst, st)
            walked[ws.a > 0] += len(res.trace)
    assert min(anchors) >= 20, anchors
    assert min(walked) >= 100, walked
    assert cornered >= 1000, cornered


def _light_traffic_pairs(count):
    """Seeded light-traffic (instance, policy) pairs: S 2-30, lam/mu from
    1e-12 to 10, where Wq sits near or at zero."""
    rng = random.Random(1)
    for _ in range(count):
        s = rng.randint(2, 30)
        mu = rng.uniform(0.5, 5.0)
        inst = Instance(S=s, N=rng.randint(1, s), lam=mu * 10.0 ** rng.uniform(-12, 1), mu=mu,
                        Bl=0.0)
        yield inst, random_policy(rng, inst)


def test_wq_is_never_negative():
    # Wq is the mean sojourn minus 1/mu, which rounds a few ulps below zero
    # where the exact Wq is zero or tiny; every route clamps it at zero
    cases = [(Instance(S=3, N=3, lam=2.0, mu=1.0, Bl=0.1), (0, 1, 2, 3)),
             (Instance(S=5, N=5, lam=50.0, mu=1.0, Bl=0.0), (0, 1, 2, 3, 4, 5)),
             *_light_traffic_pairs(3000)]
    for inst, pol in cases:
        got = (evaluate_b_wq(inst, pol)[1], evaluate_direct(inst, pol).Wq,
               evaluate_closed_form(inst, pol).Wq)
        assert all(wq >= 0.0 for wq in got), (inst, pol, got)
    inst = cases[0][0]
    assert brute_force_optimum(inst)[1] >= 0.0
    assert solve(inst).wq >= 0.0
    res = run_p1(inst, trace=True)
    assert res.wq >= 0.0 and res.trace and all(step.Wq >= 0.0 for step in res.trace)


@pytest.mark.xfail(strict=True, reason="every route forms Wq as the mean sojourn minus 1/mu, "
                                       "which cancels when Wq is far below 1/mu")
def test_wq_keeps_its_relative_accuracy_in_light_traffic():
    # lam/mu = 1e-6: an admitted customer almost never waits, Wq is about
    # 2.5e-13 against a service time of 1, and every route reads it from a
    # difference of two numbers near one
    inst = Instance(S=10, N=2, lam=1e-6, mu=1.0, Bl=0.0)
    pol = (0, 1, 10)
    wq = _exact_b_wq(inst, pol)[1]
    assert wq == 2.500000000000625e-13
    got = {"evaluate_b_wq": evaluate_b_wq(inst, pol)[1],
           "evaluate_direct": evaluate_direct(inst, pol).Wq,
           "evaluate_closed_form": evaluate_closed_form(inst, pol).Wq}
    assert all(abs(v - wq) <= 1e-9 * wq for v in got.values()), got


def test_geom_sum_matches_exact_fractions():
    # ratios far from one; random ones below, above and within a hair of
    # one, where quotient forms of these sums cancel most; on both sides of
    # 1 +- 1e-3; and further out. Each row is built to its own run length
    # and read at every entry; far from one the rows stop at 60 states,
    # where the sums stay in float range
    cases = [(rho, (1, 2, 3, 4, 10, 60)) for rho in (1e3, 1e-3)]
    rng = random.Random(37)
    for _ in range(40):
        rho = rng.choice([rng.uniform(0.2, 3.0),
                          1.0 + rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-14, -1)])
        cases.append((rho, (1, rng.randint(2, 200))))
    for d in (1e-14, 1e-9, 1e-6, 0.999e-3, 1e-3, 1.001e-3, 3e-3, 0.3):
        cases += [(rho, (1, 2, 3, 4, 10, 200)) for rho in (1.0 + d, 1.0 - d)]
    for rho, lens in cases:
        log_sums, offsets = _segment_tables([math.log(rho)] * len(lens), lens)
        r = acc = Fraction(rho)
        exact = [None]  # (sum, mean offset) of rho^t for t = 1..L
        total = moment = Fraction(0)
        for t in range(1, max(lens) + 1):
            total += acc
            moment += t * acc
            acc *= r
            exact.append((total, moment / total))
        for length, log_sum, offset in zip(lens, log_sums, offsets):
            assert len(log_sum) == len(offset) == length + 1
            assert log_sum[0] == -math.inf and offset[0] == 0.0
            for t in range(1, length + 1):
                total, mean = exact[t]
                assert abs(Fraction(math.exp(log_sum[t])) / total - 1) <= 1e-12, (rho, t)
                assert abs(Fraction(offset[t]) / mean - 1) <= 1e-12, (rho, t)


def test_evaluate_b_wq_matches_full_metrics():
    rng = random.Random(41)
    for _ in range(300):
        inst = random_instance(rng, 2, 50)
        pol = random_policy(rng, inst)
        b, wq = evaluate_b_wq(inst, pol)
        for m in (evaluate_closed_form(inst, pol), evaluate_direct(inst, pol)):
            assert rel_close(b, m.B, 1e-11)
            assert rel_close(wq, m.Wq, 1e-11)


def _mode_index(inst: Instance) -> int:
    """i*: the worker levels whose ratio lam/(i*mu) is at least one."""
    return sum(inst.lam / (i * inst.mu) >= 1.0 for i in range(1, inst.N + 1))


def _walk(rng: random.Random, inst: Instance, steps: int) -> list[tuple[int, ...]]:
    """Policies as a search or heuristic walk feeds them to one workspace.

    Mostly single +-1 moves, a third of them on k_{i*} when it can move;
    about one step in ten jumps to a fresh random policy, moving many points.
    """
    mode = _mode_index(inst)
    pol = list(random_policy(rng, inst))
    out = [tuple(pol)]
    while len(out) < steps:
        if rng.random() < 0.1:
            pol = list(random_policy(rng, inst))
        else:
            i = mode if mode < inst.N and rng.random() < 1 / 3 else rng.randrange(inst.N)
            v = pol[i] + rng.choice((-1, 1))
            lo = pol[i - 1] if i else -1
            if not lo < v < pol[i + 1]:
                continue
            pol[i] = v
        out.append(tuple(pol))
    return out


def test_evaluate_b_wq_wide_agrees_with_oracles():
    # S * ln(lam/mu) > 600: a product run forward from k_0 would overflow, so
    # the workspace anchors it at the mode; walks must track both oracles
    rng = random.Random(47)
    cases = [
        Instance(S=300, N=40, lam=12.0, mu=1.0, Bl=0.0),     # mode inside the policy
        Instance(S=300, N=6, lam=30.0, mu=1.0, Bl=0.0),      # lam >= N*mu: mode at S
        Instance(S=600, N=20, lam=3.3, mu=1.0, Bl=0.0),
        Instance(S=600, N=3, lam=7.0, mu=2.0, Bl=0.0),       # ratio 3.5 >= N
        Instance(S=900, N=4, lam=80.0, mu=0.05, Bl=1.0),
        Instance(S=1000, N=60, lam=5.0, mu=2.5, Bl=0.0),
    ]
    for inst in cases:
        assert inst.S * math.log(inst.lam / inst.mu) > 600
        mode = _mode_index(inst)
        assert _workspace(inst, threading.get_ident()).a == mode
        mode_moves = 0
        walk = _walk(rng, inst, 60)
        for prev, pol in zip([None] + walk, walk):
            mode_moves += prev is not None and prev[mode] != pol[mode]
            b, wq = evaluate_b_wq(inst, pol)
            for m in (evaluate_direct(inst, pol), evaluate_closed_form(inst, pol)):
                assert rel_close(b, m.B), (inst, pol)
                assert rel_close(wq, m.Wq), (inst, pol)
        assert mode_moves > 0 or mode == inst.N


def _mixed_calls(rng: random.Random, inst: Instance, steps: int):
    """(policy, kind) for one workspace: repeats of the previous policy (as
    an equal copy), +-1 moves, jumps that move several points from some
    index on, and middle jumps that move a bounded run of points and leave
    the tail alone."""
    n, s = inst.N, inst.S
    pol = random_policy(rng, inst)
    out = [(pol, "first")]
    while len(out) < steps:
        r = rng.random()
        if r < 0.2:
            out.append((tuple(list(pol)), "repeat"))
            continue
        if r < 0.6:
            i = rng.randrange(n)
            v = pol[i] + rng.choice((-1, 1))
            if not (pol[i - 1] if i else -1) < v < pol[i + 1]:
                continue
            out.append((pol[:i] + (v,) + pol[i + 1:], "step"))
        else:
            a = 0 if rng.random() < 0.3 else rng.randrange(n)
            b = n if r < 0.8 else rng.randrange(a + 1, n + 1)  # points a..b-1 move
            floor = pol[a - 1] + 1 if a else 0
            new = pol[:a] + tuple(sorted(rng.sample(range(floor, pol[b]), b - a))) + pol[b:]
            moved = [i for i in range(n) if new[i] != pol[i]]
            if len(moved) < 2 and (not moved or abs(new[moved[0]] - pol[moved[0]]) == 1):
                continue
            kind = ("middle jump" if moved[-1] < n - 1
                    else "jump" if moved[0] == 0 else "tail jump")
            out.append((new, kind))
        pol = out[-1][0]
    return out


@pytest.mark.parametrize("inst, a", [
    (Instance(S=40, N=8, lam=9.0, mu=1.5, Bl=0.0), 0),
    (Instance(S=300, N=12, lam=20.0, mu=1.0, Bl=0.0), 12),  # anchored at the mode, at S
    (Instance(S=300, N=12, lam=8.0, mu=1.0, Bl=0.0), 8),    # anchored at the mode, 8 < N
    # many segments, filled by np.repeat past _LONG_RUN states
    (Instance(S=130, N=100, lam=100.0, mu=1.0, Bl=0.0), 0),
    (Instance(S=160, N=100, lam=150.0, mu=1.0, Bl=0.0), 100),
], ids=[  # each anchor named after the class that held it before the two merged
    "inst0-_Workspace", "inst1-_ModeWorkspace", "inst2-_ModeWorkspace", "inst3-_Workspace",
    "inst4-_ModeWorkspace"])
def test_workspace_results_depend_on_the_policy_alone(inst, a):
    # one workspace driven through repeats, moves and jumps must give
    # exactly what a fresh workspace gives for each policy, and hold the
    # same ratios on the live states k_0+1..S; before some calls a stray
    # ratio is written into a live state without a b_wq call, as a P1
    # walk's patches are, and the next call must not read it
    assert _workspace(inst, threading.get_ident()).a == a
    rng, strays = random.Random(61), random.Random(62)
    ws = _Workspace(inst)
    # and hold the ratios built here from the policy alone, without _fill:
    # each state of (k_{i-1}, k_i] gets lam/(i*mu), inverted for i <= a
    ratios = [inst.lam / (i * inst.mu) for i in range(1, inst.N + 1)]
    ratios = [1.0 / r if i < a else r for i, r in enumerate(ratios)]
    kinds = {}
    for pol, kind in _mixed_calls(rng, inst, 3000):
        if strays.random() < 0.15:
            ws.step_mv[strays.randint(pol[0] + 1, inst.S)] = strays.uniform(0.1, 10.0)
            kind = "stray, " + kind
        fresh = _Workspace(inst)
        assert ws.b_wq(pol) == fresh.b_wq(pol), (kind, pol)
        live = slice(pol[0] + 1, None)
        assert ws.step_buf[live].tolist() == fresh.step_buf[live].tolist(), (kind, pol)
        want = [r for r, lo, hi in zip(ratios, pol, pol[1:]) for _ in range(lo, hi)]
        assert ws.step_buf[live].tolist() == want, (kind, pol)
        kinds[kind] = kinds.get(kind, 0) + 1
    need = ["repeat", "step", "jump", "tail jump", "middle jump", "stray, repeat", "stray, step"]
    assert min(kinds.get(k, 0) for k in need) >= 20, kinds


@pytest.mark.parametrize("inst", [
    Instance(S=40, N=8, lam=9.0, mu=1.5, Bl=0.0),
    Instance(S=300, N=12, lam=8.0, mu=1.0, Bl=0.0),  # anchored at the mode
], ids=["inst0-_Workspace", "inst1-_ModeWorkspace"])  # as above
def test_memo_answers_are_the_computed_ones(inst):
    # the solver's memo, set up as solve sets it, over a call stream that
    # mixes the workspace's own kinds of moves with returns to policies some
    # calls back, within the memo's reach and beyond it: each answer == a
    # fresh workspace's, hits are counted like computed calls, and the memo
    # never holds more than _MEMO_SIZE answers
    rng = random.Random(67)
    stats = SearchStats()
    stats.memo = memo = {}
    seen, hits, stream = [], 0, _mixed_calls(rng, inst, 3000)
    for pol, _ in stream:
        if seen and rng.random() < 0.3:
            pol = seen[-rng.randint(1, min(len(seen), 3 * _MEMO_SIZE))]
        seen.append(pol)
        hits += pol in memo
        assert _eval(inst, pol, stats) == _Workspace(inst).b_wq(pol), pol
        assert len(memo) <= _MEMO_SIZE
    assert len(memo) == _MEMO_SIZE
    assert stats.evaluations == len(stream)
    assert 500 < hits < len(stream) - 500, hits


def test_long_policies_skip_the_memo(eval_calls):
    # a solve on policies of _MEMO_MAX_LEN + 1 entries computes every
    # evaluation that goes through _eval (search's corners do not); one entry
    # shorter, the memo answers some of them
    for n, memo in ((_MEMO_MAX_LEN, False), (_MEMO_MAX_LEN - 1, True)):
        base = Instance(S=67, N=n, lam=50.0, mu=1.0, Bl=0.0)
        bl = (evaluate_b_wq(base, max_backroom_policy(base))[0]
              + evaluate_b_wq(base, min_wait_policy(base))[0]) / 2
        inst = Instance(S=67, N=n, lam=50.0, mu=1.0, Bl=bl)
        eval_calls[0] = eval_calls[1] = 0
        res = solve(inst, SolverConfig(time_limit=None))
        assert res.status == "optimal" and eval_calls[0] > 1000
        calls, computed = eval_calls
        assert (computed < calls if memo else computed == calls), (n, eval_calls)
        assert res.wq == _Workspace(inst).b_wq(res.incumbent)[1]


def test_evaluate_b_wq_keeps_no_answers(b_wq_calls):
    # only a solve keeps answers: every repeat outside one is computed again
    for inst in (Instance(S=40, N=8, lam=9.0, mu=1.5, Bl=0.0),
                 Instance(S=300, N=12, lam=8.0, mu=1.0, Bl=0.0)):
        pol = min_wait_policy(inst)
        b_wq_calls[0] = 0
        got = [evaluate_b_wq(inst, pol) for _ in range(3)]
        assert b_wq_calls[0] == 3 and got == [got[0]] * 3, inst


def _evaluate_in_threads(inst, walks, expect, rounds, deadline):
    """Each thread replays its own walk through evaluate_b_wq ``rounds``
    times; returns (evaluations done per thread, wrong results)."""
    done = [0] * len(walks)
    wrong = []

    def work(t):
        for _ in range(rounds):
            if time.monotonic() > deadline:
                return
            for pol, (b, wq) in zip(walks[t], expect[t]):
                got = evaluate_b_wq(inst, pol)
                if not (rel_close(got[0], b) and rel_close(got[1], wq)):
                    wrong.append((pol, got, (b, wq)))
                done[t] += 1

    threads = [threading.Thread(target=work, args=(t,)) for t in range(len(walks))]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60.0)
    assert not any(th.is_alive() for th in threads)
    return done, wrong


def test_evaluate_b_wq_is_thread_safe():
    # threads walking one instance at once must never see each other's buffers
    rng = random.Random(53)
    n_threads, steps, rounds = 4, 50, 40
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for inst in (Instance(S=60, N=12, lam=9.0, mu=1.0, Bl=0.0),
                     Instance(S=300, N=8, lam=30.0, mu=1.0, Bl=0.0)):
            walks = [_walk(rng, inst, steps) for _ in range(n_threads)]
            expect = [[(m.B, m.Wq) for m in (evaluate_direct(inst, pol) for pol in walk)]
                      for walk in walks]
            done, wrong = _evaluate_in_threads(inst, walks, expect, rounds,
                                               time.monotonic() + 30.0)
            assert sum(done) == n_threads * steps * rounds, (inst, done)
            assert not wrong, (inst, len(wrong), wrong[:3])
    finally:
        sys.setswitchinterval(old_interval)


def test_instance_hash_keeps_the_dataclass_behaviour():
    a = Instance(S=12, N=4, lam=7.5, mu=1.25, Bl=1.0)
    b = Instance(12, 4, 7.5, 1.25, 1.0)
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash((12, 4, 7.5, 1.25, 1.0))  # the dataclass's own hash
    assert repr(a) == "Instance(S=12, N=4, lam=7.5, mu=1.25, Bl=1.0)"
    assert {a: "x"}[b] == "x" and len({a, b}) == 1
    c = dataclasses.replace(a, Bl=2.0)
    assert c != a and c == Instance(12, 4, 7.5, 1.25, 2.0)
    assert hash(c) == hash((12, 4, 7.5, 1.25, 2.0))
    d = pickle.loads(pickle.dumps(a))
    assert d == a and hash(d) == hash(a) and repr(d) == repr(a)
    assert dataclasses.astuple(a) == (12, 4, 7.5, 1.25, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.S = 13
