"""Heuristic walk tests: the frozen canonical trace plus random soundness."""

import hashlib
import random
import time
from collections.abc import Sequence
from types import SimpleNamespace

from conftest import DESK_SPEC, EXAMPLE, OPT_POLICY, TALL_SPEC, random_instance
from switchq import core, heuristic
from switchq import Instance, brute_force_optimum, evaluate_b_wq, generate, run_p1
from switchq.core import EPS_B, _Workspace, max_backroom_policy, min_wait_policy

# every policy the walk evaluates on EXAMPLE, in order, with its move label
EXAMPLE_TRACE = [
    ((3, 4, 5, 6), "start"),
    ((2, 4, 5, 6), "dec k0"),
    ((1, 4, 5, 6), "dec k0"),
    ((0, 4, 5, 6), "dec k0"),
    ((0, 3, 5, 6), "dec k1"),
    ((0, 2, 5, 6), "dec k1"),
    ((0, 1, 5, 6), "dec k1"),
    ((0, 1, 4, 6), "dec k2"),
    ((0, 2, 4, 6), "inc k1"),
    ((1, 2, 4, 6), "inc k0"),
    ((1, 3, 4, 6), "inc k1"),
    ((0, 3, 4, 6), "dec k0"),
    ((0, 2, 4, 6), "dec k1"),
    ((1, 2, 4, 6), "inc k0"),
]


def test_example_walk_is_frozen():
    res = run_p1(EXAMPLE, trace=True)
    assert res.status == "solved"
    assert res.policy == OPT_POLICY
    assert res.steps == 14 == len(res.trace)
    assert [(st.policy, st.action) for st in res.trace] == EXAMPLE_TRACE
    for st in res.trace:
        b, wq = evaluate_b_wq(EXAMPLE, st.policy)
        assert st.B == b and st.Wq == wq


def test_example_walk_revisits_two_policies():
    # the repair loop legitimately crosses two policies a second time
    seen = [st.policy for st in run_p1(EXAMPLE, trace=True).trace]
    assert len(seen) - len(set(seen)) == 2
    assert seen.count((0, 2, 4, 6)) == 2
    assert seen.count((1, 2, 4, 6)) == 2


def test_returns_all_early_policy_when_it_is_feasible():
    inst = Instance(S=6, N=3, lam=15.0, mu=3.0, Bl=0.1)
    res = run_p1(inst)
    assert res.status == "solved"
    assert res.policy == min_wait_policy(inst) == (0, 1, 2, 6)


def test_infeasible_instance_detected_at_start():
    res = run_p1(Instance(S=6, N=3, lam=15.0, mu=3.0, Bl=2.9))
    assert res.status == "infeasible"
    assert res.policy is None and res.wq is None
    assert res.steps == 1


def test_past_deadline_stops_after_first_evaluation():
    res = run_p1(EXAMPLE, deadline=time.perf_counter() - 1.0, trace=True)
    assert res.status == "timeout" and res.steps == 1
    assert res.policy == max_backroom_policy(EXAMPLE)
    assert res.wq == res.trace[0].Wq


def test_deadline_cuts_the_walk_after_any_step(monkeypatch):
    # a clock that ticks once per reading: with deadline d the walk makes d
    # checks in time, so it stops after exactly d + 1 evaluations, inside a
    # repair as well as between moves
    rng = random.Random(17)
    for inst in [EXAMPLE] + [random_instance(rng, 4, 12) for _ in range(10)]:
        full = run_p1(inst, trace=True)
        if full.status == "infeasible":
            continue
        target = inst.Bl - EPS_B
        for d in range(full.steps - 1):
            ticks = iter(range(1, full.steps + 1))
            monkeypatch.setattr(heuristic, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
            res = run_p1(inst, deadline=d, trace=True)
            monkeypatch.undo()
            assert res.status == "timeout" and res.steps == d + 1
            assert res.trace == full.trace[:d + 1]
            best = res.trace[0]
            for step in res.trace[1:]:
                if step.B >= target and step.Wq < best.Wq - heuristic.IMPROVE_EPS:
                    best = step
            assert (res.policy, res.wq) == (best.policy, best.Wq)


def test_random_walks_terminate_and_return_feasible():
    rng = random.Random(13)
    for _ in range(300):
        inst = random_instance(rng, 2, 40)
        res = run_p1(inst, trace=True)
        assert res.steps == len(res.trace) > 0
        s, n = inst.S, inst.N
        assert res.steps <= 20 * (n + 1) * (s + 2) + 100
        if res.status == "infeasible":
            assert res.trace[0].B < inst.Bl - 1e-9
            continue
        b, wq = evaluate_b_wq(inst, res.policy)
        assert b >= inst.Bl - 1e-9
        assert res.wq == wq
        feas_wqs = [st.Wq for st in res.trace if st.B >= inst.Bl - 1e-9]
        assert res.wq <= min(feas_wqs) + 1e-12


def test_walk_never_beats_brute_force():
    rng = random.Random(17)
    checked = 0
    for _ in range(60):
        inst = random_instance(rng, 3, 12)
        found = brute_force_optimum(inst)
        res = run_p1(inst)
        if found is None:
            assert res.status == "infeasible"
            continue
        assert res.status == "solved"
        assert res.wq >= found[1] - 1e-9
        checked += 1
    assert checked > 20


def type1_eligible(pol: Sequence[int], i: int) -> bool:
    """Can k_i move down one step without breaking the ordering?"""
    return pol[i] - pol[i - 1] > 1 if i > 0 else pol[0] > 0


def type2_eligible(pol: Sequence[int], i: int) -> bool:
    """Can k_i move up one step without breaking the ordering?"""
    return pol[i + 1] - pol[i] > 1


def test_eligibility_predicates():
    pol = (0, 2, 3, 6)
    assert not type1_eligible(pol, 0)
    assert type1_eligible(pol, 1)
    assert not type1_eligible(pol, 2)
    assert type2_eligible(pol, 0)
    assert not type2_eligible(pol, 1)
    assert type2_eligible(pol, 2)
    assert type1_eligible((1, 2, 3, 6), 0)


def _reference_p1(inst: Instance, eps_b: float = 1e-9, improve_eps: float = 1e-12):
    """P1 as published, with the J guard: every repair scan starts from 0
    and every policy goes through evaluate_b_wq.  Returns the trace as
    (policy, B, Wq, action) tuples and the best policy."""
    k = list(range(inst.S - inst.N, inst.S)) + [inst.S]
    trace = []

    def look(action):
        b, wq = evaluate_b_wq(inst, tuple(k))
        trace.append((tuple(k), b, wq, action))
        return b, wq

    target = inst.Bl - eps_b
    b, wq = look("start")
    if b < target:
        return trace, None
    best_pol, best_wq = tuple(k), wq
    big_j, floor = inst.N, 0
    while True:
        j = next((t for t in range(floor, big_j) if type1_eligible(k, t)), None)
        if j is None:
            return trace, best_pol
        floor = j
        k[j] -= 1
        b, wq = look(f"dec k{j}")
        if b < target:
            big_j = j
            while True:
                j2 = next((t for t in range(big_j) if type2_eligible(k, t)), None)
                if j2 is None:
                    return trace, best_pol
                floor = min(floor, j2)
                k[j2] += 1
                b, wq = look(f"inc k{j2}")
                if b >= target:
                    break
        if wq < best_wq - improve_eps:
            best_pol, best_wq = tuple(k), wq


def test_walk_matches_one_at_a_time_reference():
    # run_p1 resumes each repair scan at j2 - 1 and evaluates through a
    # workspace of its own; the walk, its values and its answer must be those
    # of the plain loop that rescans from 0 and calls evaluate_b_wq
    rng = random.Random(19)
    insts = generate(TALL_SPEC)[:4] + [random_instance(rng, 2, 60) for _ in range(60)]
    insts.append(Instance(S=300, N=10, lam=9.0, mu=1.0, Bl=0.5))   # mode-anchored
    long_walks = 0
    for inst in insts:
        ref_trace, ref_pol = _reference_p1(inst)
        res = run_p1(inst, trace=True)
        assert [(st.policy, st.B, st.Wq, st.action) for st in res.trace] == ref_trace, inst
        assert res.policy == ref_pol
        long_walks += len(ref_trace) > 500
    assert long_walks >= 3


def test_wide_walk_matches_fresh_workspaces():
    # a wide-walk draw with its mode index, 7, inside the policy: the walk's
    # moves all fall below it, so it keeps the forward half of the
    # mode-anchored product throughout; each step must read exactly what a
    # fresh workspace gives for that policy
    inst = Instance(S=300, N=10, lam=85.0, mu=11.0, Bl=3.0)
    assert sum(inst.lam / (i * inst.mu) >= 1.0 for i in range(1, inst.N + 1)) == 7
    res = run_p1(inst, trace=True)
    assert res.steps == len(res.trace) == 3451
    for st in res.trace:
        assert (st.B, st.Wq) == _Workspace(inst).b_wq(st.policy), st


def test_wide_walk_above_the_mode_matches_fresh_workspaces():
    # mode index 9 inside the policy, and half the walk's moves above it:
    # each of those must recompute the forward half of the mode-anchored
    # product, which moves below the mode leave in place
    inst = Instance(S=300, N=20, lam=9.0, mu=1.0, Bl=11.0)
    mode = sum(inst.lam / (i * inst.mu) >= 1.0 for i in range(1, inst.N + 1))
    assert mode == 9
    res = run_p1(inst, trace=True)
    assert res.steps == len(res.trace) == 5601
    assert sum(int(st.action[5:]) > mode for st in res.trace[1:]) == 2800
    for st in res.trace:
        assert (st.B, st.Wq) == _Workspace(inst).b_wq(st.policy), st


def test_walk_owns_its_workspace():
    # a walk builds its own workspace, patches its buffers and evaluates
    # from them itself, so nothing else may drive that workspace; it leaves
    # evaluate_b_wq's per-thread workspaces alone
    wide = Instance(S=300, N=10, lam=85.0, mu=11.0, Bl=3.0)
    assert _Workspace(EXAMPLE).a == 0 and _Workspace(wide).a == 7
    core._workspace.cache_clear()
    for inst in (EXAMPLE, wide):
        for trace in (False, True):
            assert run_p1(inst, trace=trace).steps > 10
            assert core._workspace.cache_info().currsize == 0, (inst, trace)


# SHA-256 over every step of the traced walks on each suite, one line per
# step: policy, move label, B.hex(), Wq.hex()
WALK_DIGESTS = {
    "desk": (7994, "14c9b360464b2e6ad6fb57783b2775630186f94f5ef9e63c67b0f7cd5c92abba"),
    "tall": (15623, "3a286ce5b9a15e0074be69173f393866a441ecd2824aa969abdef6c6c2b46efc"),
    "wide": (11953, "08816056938cb37108a991bb06711d91917cb93b17d53b6c3d0a2957fb929db9"),
}

# mode-anchored walks whose moves reach above the mode index, up to it, and
# only below it
WIDE_WALKS = [
    Instance(S=300, N=20, lam=9.0, mu=1.0, Bl=11.0),
    Instance(S=300, N=10, lam=9.0, mu=1.0, Bl=0.5),
    Instance(S=300, N=10, lam=85.0, mu=11.0, Bl=3.0),
]


def _answer(res):
    return res.status, res.policy, None if res.wq is None else res.wq.hex(), res.steps


def test_suite_walks_are_pinned_bit_for_bit():
    for label, insts in (("desk", generate(DESK_SPEC)), ("tall", generate(TALL_SPEC)),
                         ("wide", WIDE_WALKS)):
        digest = hashlib.sha256()
        count = 0
        for inst in insts:
            traced = run_p1(inst, trace=True)
            for st in traced.trace:
                digest.update(f"{st.policy} {st.action} {st.B.hex()} {st.Wq.hex()}\n".encode())
            count += len(traced.trace)
            assert traced.steps == len(traced.trace)
            # without the trace the walk must answer the same, and keep nothing
            plain = run_p1(inst)
            assert plain.trace == []
            assert _answer(plain) == _answer(traced), inst
        assert (count, digest.hexdigest()) == WALK_DIGESTS[label], label
