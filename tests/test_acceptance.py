"""Acceptance gate: one test per numbered criterion.

Each test does its own measurement, asserts the criterion, and prints a
single [PASS]/[FAIL] line with the headline numbers straight to the
terminal, bypassing capture, so a `pytest -v` run shows the whole scorecard.
"""

import random
import time

from conftest import (DESK_SPEC, EXAMPLE, OPT_POLICY, _needs_log_space,
                      log_space_pair, near_unit_pair, random_instance,
                      random_policy)
from switchq import (DomainStore, Instance, SolverConfig, STRATEGIES,
                     brute_force_optimum, evaluate_b_wq, evaluate_closed_form,
                     evaluate_direct, generate, max_backroom_policy,
                     min_wait_policy, run_p1, solve, write_instances)
from switchq.heuristic import type1_eligible
from switchq.solver import (Incumbent, SearchStats, alternating_shave,
                            bl_gmax_probe, bl_gmin_probe, bl_shave, wq_shave)

_T0 = time.perf_counter()


def _report(capsys, ok: bool, message: str) -> None:
    with capsys.disabled():
        print(("[PASS] " if ok else "[FAIL] ") + message)
    assert ok, message


def test_criterion_01_golden_evaluation(capsys):
    golden = {(0, 1, 2, 6): 0.1116577, (0, 1, 5, 6): 0.508992,
              (0, 4, 5, 6): 0.63171, (3, 4, 5, 6): 0.648305}
    worst = 0.0
    slowest = 0.0
    for pol, b in golden.items():
        for ev in (evaluate_direct, evaluate_closed_form):
            runs = []
            for _ in range(5):
                t0 = time.perf_counter()
                m = ev(EXAMPLE, pol)
                runs.append(time.perf_counter() - t0)
            worst = max(worst, abs(m.B - b))
            slowest = max(slowest, min(runs))
    ok = worst <= 1e-5 and slowest < 1e-3
    _report(capsys, ok, "criterion 1: golden B values within 1e-5 "
            f"(worst {worst:.2e}) and under 1 ms (slowest {slowest * 1e6:.0f} us)")


def test_criterion_02_golden_optimum(capsys):
    t0 = time.perf_counter()
    results = [("brute",) + brute_force_optimum(EXAMPLE)]
    for strat in STRATEGIES:
        res = solve(EXAMPLE, SolverConfig(strategy=strat))
        results.append((strat, res.incumbent, res.wq, res.proof))
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    for row in results:
        ok = ok and row[1] == OPT_POLICY and abs(row[2] - 0.306323) <= 1e-5
        if len(row) == 4:
            ok = ok and row[3]
    _report(capsys, ok, "criterion 2: brute force and all strategies prove "
            f"Wq 0.306323 in {elapsed * 1e3:.0f} ms")


def test_criterion_03_golden_wq_range(capsys):
    lo = evaluate_direct(EXAMPLE, min_wait_policy(EXAMPLE)).Wq
    hi = evaluate_direct(EXAMPLE, max_backroom_policy(EXAMPLE)).Wq
    ok = abs(lo - 0.22225) <= 1e-4 and abs(hi - 0.425225) <= 1e-4
    _report(capsys, ok, "criterion 3: extreme-policy waits "
            f"{lo:.5f} and {hi:.5f} match 0.22225 / 0.425225")


def test_criterion_04_golden_shaving_replay(capsys):
    stats = SearchStats()
    store = DomainStore.initial(EXAMPLE)
    out1 = bl_gmax_probe(EXAMPLE, store, 2, Incumbent(), stats)
    ok = out1 == "shaved" and (store.lo[2], store.hi[2]) == (3, 5)

    store = DomainStore.initial(EXAMPLE)
    inc = Incumbent()
    out2 = bl_gmin_probe(EXAMPLE, store, 0, inc, stats)
    out3 = bl_gmin_probe(EXAMPLE, store, 0, inc, stats)
    ok = ok and out2 == out3 == "shaved" and (store.lo[0], store.hi[0]) == (0, 1)
    _report(capsys, ok, "criterion 4: probe at k2=2 leaves [3..5]; two probes "
            "on k0 leave [0..1]")


def test_criterion_05_oracle_equivalence(capsys):
    rng = random.Random(101)
    pairs = 0
    log_hits = 0
    violations = 0
    for kind in ("generic",) * 7 + ("near_unit",) * 2 + ("log_space",):
        for _ in range(1000):
            if kind == "generic":
                inst = random_instance(rng)
                pol = random_policy(rng, inst)
            elif kind == "near_unit":
                inst, pol = near_unit_pair(rng)
            else:
                inst, pol = log_space_pair(rng)
            log_hits += _needs_log_space(inst, pol)
            md = evaluate_direct(inst, pol)
            mc = evaluate_closed_form(inst, pol)
            for a, b in ((md.F, mc.F), (md.B, mc.B), (md.L, mc.L),
                         (md.Wq, mc.Wq), (md.pBlock, mc.pBlock)):
                if a != b and abs(a - b) > 1e-9 * max(1.0, abs(a), abs(b)):
                    violations += 1
            pairs += 1
    ok = pairs >= 10000 and violations == 0 and log_hits >= 500
    _report(capsys, ok, f"criterion 5: two evaluation routes agree on {pairs} "
            f"random pairs ({log_hits} past plain float range), {violations} violations")


def test_criterion_06_solver_completeness(capsys, desk_suite, desk_brute, desk_pure):
    t0 = time.perf_counter()
    mismatches = 0
    for strat in STRATEGIES:
        runs = desk_pure if strat == "alt-search-shave" else \
            [solve(inst, SolverConfig(strategy=strat)) for inst in desk_suite]
        for res, found in zip(runs, desk_brute):
            good = (res.status == "optimal" and res.proof
                    and abs(res.wq - found[1]) <= 1e-9 * max(1.0, found[1]))
            mismatches += not good
    elapsed = time.perf_counter() - _T0
    ok = len(desk_suite) >= 200 and mismatches == 0 and elapsed < 600
    _report(capsys, ok, f"criterion 6: all {len(STRATEGIES)} strategies prove "
            f"the brute-force optimum on {len(desk_suite)} instances, "
            f"{mismatches} mismatches, {elapsed:.0f} s since suite start")


def test_criterion_07_decrement_monotonicity(capsys):
    rng = random.Random(103)
    pairs = 0
    violations = 0
    while pairs < 10000:
        inst = random_instance(rng, 3, 100)
        pol = random_policy(rng, inst)
        movable = [i for i in range(inst.N) if type1_eligible(pol, i)]
        if not movable:
            continue
        i = rng.choice(movable)
        dec = pol[:i] + (pol[i] - 1,) + pol[i + 1:]
        b0, wq0 = evaluate_b_wq(inst, pol)
        b1, wq1 = evaluate_b_wq(inst, dec)
        f0, f1 = inst.N - b0, inst.N - b1
        tol = 1e-9
        if wq1 > wq0 + tol * max(1.0, wq0) or f1 < f0 - tol or b1 > b0 + tol:
            violations += 1
        pairs += 1
    ok = violations == 0
    _report(capsys, ok, f"criterion 7: lowering one switching point never "
            f"raised Wq or B or cut F on {pairs} pairs, {violations} violations")


def test_criterion_08_heuristic_soundness(capsys, desk_suite, desk_brute, tall_suite):
    unsound = 0
    for inst, found in zip(desk_suite, desk_brute):
        res = run_p1(inst)
        if res.status != "solved" or res.wq < found[1] - 1e-9 * max(1.0, found[1]):
            unsound += 1

    easy_misses = 0
    for inst in desk_suite[:50]:
        khat = min_wait_policy(inst)
        eased = Instance(S=inst.S, N=inst.N, lam=inst.lam, mu=inst.mu,
                         Bl=0.5 * evaluate_b_wq(inst, khat)[0])
        if run_p1(eased).policy != khat:
            easy_misses += 1

    slowest = 0.0
    for inst in tall_suite:
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            run_p1(inst)
            runs.append(time.perf_counter() - t0)
        slowest = max(slowest, min(runs))
    ok = unsound == 0 and easy_misses == 0 and slowest < 0.05
    _report(capsys, ok, f"criterion 8: heuristic stayed above the optimum on "
            f"{len(desk_suite)} instances, returned the all-early policy on "
            f"{50 - easy_misses}/50 eased ones, worst run "
            f"{slowest * 1e3:.1f} ms at S up to 100")


def test_criterion_09_hybrid_dominates_components(capsys, desk_suite, desk_pure):
    losses = 0
    for inst, pure in zip(desk_suite, desk_pure):
        p1 = run_p1(inst)
        hybrid = solve(inst, SolverConfig(hybrid=True))
        bound = min(p1.wq, pure.wq)
        if hybrid.wq > bound + 1e-12 * max(1.0, bound):
            losses += 1
    ok = losses == 0
    _report(capsys, ok, f"criterion 9: hybrid matched or beat both components "
            f"on {len(desk_suite)} instances, {losses} losses")


def test_criterion_10_shaving_soundness(capsys, desk_suite, desk_brute):
    drivers = (bl_shave, wq_shave, alternating_shave)
    kept_in_box = 0
    value_attained = 0
    violations = 0
    for inst, (best_pol, best_wq) in zip(desk_suite, desk_brute):
        late = max_backroom_policy(inst)
        late_wq = evaluate_b_wq(inst, late)[1]
        for drive in drivers:
            store = DomainStore.initial(inst)
            inc = Incumbent()
            inc.consider(late, late_wq)
            drive(inst, store, inc, SearchStats())
            if not store.failed and store.contains(best_pol):
                kept_in_box += 1
            elif inc.wq <= best_wq + 1e-9 * max(1.0, best_wq):
                value_attained += 1
            else:
                violations += 1
    ok = violations == 0
    _report(capsys, ok, f"criterion 10: after {kept_in_box + value_attained} "
            f"shave fixpoints the optimum stayed in the box ({kept_in_box}) or "
            f"was already matched ({value_attained}); {violations} violations")


def test_criterion_11_determinism(capsys, tmp_path, desk_suite):
    again = generate(DESK_SPEC)
    same_draw = again == desk_suite
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_instances(pa, desk_suite)
    write_instances(pb, again)
    same_bytes = pa.read_bytes() == pb.read_bytes()

    same_solve = True
    for inst in desk_suite[:20]:
        cfg = SolverConfig(strategy="alt-search-shave", hybrid=True)
        a = solve(inst, cfg)
        b = solve(inst, cfg)
        same_solve = same_solve and (
            (a.status, a.incumbent, a.wq, a.proof) ==
            (b.status, b.incumbent, b.wq, b.proof)
            and (a.stats.nodes, a.stats.shave_iterations, a.stats.evaluations) ==
                (b.stats.nodes, b.stats.shave_iterations, b.stats.evaluations)
            and [w for _, w in a.incumbent_trace] == [w for _, w in b.incumbent_trace])
    elapsed = time.perf_counter() - _T0
    ok = same_draw and same_bytes and same_solve and elapsed < 600
    _report(capsys, ok, "criterion 11: regeneration is byte-identical and "
            f"repeat solves match field for field ({elapsed:.0f} s total)")
