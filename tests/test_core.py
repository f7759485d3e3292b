"""Evaluator tests: validation, golden values, route agreement, stability."""

import dataclasses
import math
import pickle
import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from conftest import (EXAMPLE, GOLDEN_B_WQ, _needs_log_space, log_space_pair,
                      near_unit_pair, random_instance, random_policy, rel_close)
from switchq import (Instance, evaluate_b_wq, evaluate_closed_form,
                     evaluate_direct, is_feasible, max_backroom_policy,
                     min_wait_policy, validate_instance, validate_policy)
from switchq.core import (_log_geom_first_moment, _log_geom_sum, _ModeWorkspace,
                          _Workspace, _workspace)


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
    # nearly every arrival is lost, so 1 - P(S) is tiny: the closed form sums
    # the mass below S rather than subtracting P(S) from one
    rng = random.Random(59)
    for _ in range(200):
        s = rng.randint(3, 40)
        n = rng.randint(1, min(6, s))
        mu = rng.uniform(0.2, 5.0)
        inst = Instance(S=s, N=n, lam=mu * 10.0 ** rng.uniform(3.0, 12.0), mu=mu, Bl=0.0)
        pol = random_policy(rng, inst)
        b, wq = _exact_b_wq(inst, pol)
        m = evaluate_closed_form(inst, pol)
        assert rel_close(m.B, b, 1e-12), (inst, pol)
        assert rel_close(m.Wq, wq, 1e-12), (inst, pol, m.Wq, wq)


def _geom_cases(rng: random.Random):
    """(r, n): random ratios below, above and within a hair of one, then both
    sides of the first moment's near-one window and of one, at short runs
    where the quotient forms cancel most."""
    for _ in range(120):
        n = rng.randint(1, 200)
        yield rng.choice([rng.uniform(0.2, 3.0),
                          1.0 + rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-14, -1)]), n
    for d in (1e-14, 1e-9, 1e-6, 0.999e-3, 1.001e-3, 3e-3, 0.3):
        for r in (1.0 - d, 1.0 + d):
            for n in (1, 2, 3, 4, 10, 200):
                yield r, n


def test_geom_sum_matches_exact_fractions():
    for r, n in _geom_cases(random.Random(37)):
        fr = Fraction(r)
        acc = Fraction(1)
        exact_sum = Fraction(0)
        exact_fm = Fraction(0)
        for t in range(n):
            exact_sum += acc
            exact_fm += t * acc
            acc *= fr
        assert rel_close(math.exp(_log_geom_sum(r, n)), float(exact_sum), 1e-12), (r, n)
        assert rel_close(math.exp(_log_geom_first_moment(r, n)), float(exact_fm), 1e-11), (r, n)


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
        assert isinstance(_workspace(inst, threading.get_ident()), _ModeWorkspace)
        mode = _mode_index(inst)
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
    """(policy, moved hint, kind) for one workspace: repeats of the previous
    policy (as an equal copy), +-1 moves with and without the hint, jumps
    that move several points from some index on, and middle jumps that move
    a bounded run of points and leave the tail alone."""
    n, s = inst.N, inst.S
    pol = random_policy(rng, inst)
    out = [(pol, -1, "first")]
    while len(out) < steps:
        r = rng.random()
        if r < 0.2:
            out.append((tuple(list(pol)), -1, "repeat"))
            continue
        if r < 0.6:
            i = rng.randrange(n)
            v = pol[i] + rng.choice((-1, 1))
            if not (pol[i - 1] if i else -1) < v < pol[i + 1]:
                continue
            new = pol[:i] + (v,) + pol[i + 1:]
            hinted = rng.random() < 0.5
            out.append((new, i if hinted else -1, "hinted" if hinted else "unhinted"))
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
            out.append((new, -1, kind))
        pol = out[-1][0]
    return out


@pytest.mark.parametrize("inst, cls", [
    (Instance(S=40, N=8, lam=9.0, mu=1.5, Bl=0.0), _Workspace),
    (Instance(S=300, N=12, lam=20.0, mu=1.0, Bl=0.0), _ModeWorkspace),  # mode at S
    (Instance(S=300, N=12, lam=8.0, mu=1.0, Bl=0.0), _ModeWorkspace),   # mode 8 < N
])
def test_workspace_results_depend_on_the_policy_alone(inst, cls):
    # one workspace driven through repeats, patches and bounded rewrites
    # must give exactly what a fresh workspace gives for each policy, and
    # hold the same ratios on the live states k_0+1..S; hinted moves are
    # sorted by where they fall against the mode index, because the
    # mode-anchored workspace keeps its forward half only below it
    assert isinstance(_workspace(inst, threading.get_ident()), cls)
    rng = random.Random(61)
    mode = _mode_index(inst)
    ws = cls(inst)
    kinds = {}
    for pol, moved, kind in _mixed_calls(rng, inst, 3000):
        fresh = cls(inst)
        assert ws.b_wq(pol, moved) == fresh.b_wq(pol), (kind, moved, pol)
        live = slice(pol[0] + 1, None)
        assert ws.step_buf[live].tolist() == fresh.step_buf[live].tolist(), (kind, moved, pol)
        if kind == "hinted":
            kind = ("hinted below", "hinted at", "hinted above")[(moved >= mode) + (moved > mode)]
        kinds[kind] = kinds.get(kind, 0) + 1
    need = ["repeat", "hinted below", "unhinted", "jump", "tail jump", "middle jump"]
    if mode < inst.N:
        need += ["hinted at", "hinted above"]
    assert min(kinds.get(k, 0) for k in need) >= 20, kinds


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
