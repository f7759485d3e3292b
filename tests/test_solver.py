"""Solver tests: domains, corner completions, probes, shaving, search, solve."""

import itertools
import math
import random
import threading
import time

import pytest

from conftest import (DESK_SPEC, EXAMPLE, HEAVY_BLOCKING_INFEASIBLE, OPT_POLICY, REGIMES,
                      WQ_OPT, _carried, _corner_b_wq, random_instance, random_policy,
                      regime_instance, rel_close)
from switchq import (EPS_B, DomainStore, Instance, SolverConfig, STRATEGIES,
                     brute_force_optimum, evaluate_b_wq, evaluate_direct, generate,
                     max_backroom_policy, min_wait_policy, run_p1, search, solve)
from switchq.core import _balance_weights, _workspace
import switchq.heuristic as heuristic_mod
import switchq.solver as solver_mod
from switchq.solver import (_SHORT_RUN, EPS_WQ, Incumbent, SearchStats, SolveTimeout,
                            _Corners, _eval, alternating_shave, bl_gmax_probe,
                            bl_gmin_probe, bl_shave, gmax, gmin, wq_gmin_probe, wq_shave)
from test_core import _exact_b_wq

HARD = Instance(S=6, N=3, lam=15.0, mu=3.0, Bl=2.9)   # nothing is feasible
EASY = Instance(S=6, N=3, lam=15.0, mu=3.0, Bl=0.1)   # all-early is feasible


def sweep_gmin(inst, store, fixed=None):
    """Reference downward corner: sweep left to right taking the lowest value
    each domain still allows, honoring fixed assignments; None when the
    fixed values leave no completion."""
    ks = []
    prev = -1
    for i in range(inst.N):
        if fixed is not None and i in fixed:
            v = fixed[i]
            if v < store.lo[i] or v > store.hi[i] or v <= prev:
                return None
        else:
            v = max(store.lo[i], prev + 1)
            if v > store.hi[i]:
                return None
        ks.append(v)
        prev = v
    if prev >= inst.S:
        return None
    return tuple(ks) + (inst.S,)


def sweep_gmax(inst, store, fixed=None):
    """Reference upward corner: the mirror sweep, right to left, taking the
    highest value each domain still allows below its successor."""
    n = inst.N
    ks = [0] * n
    nxt = inst.S
    for i in range(n - 1, -1, -1):
        if fixed is not None and i in fixed:
            v = fixed[i]
            if v < store.lo[i] or v > store.hi[i] or v >= nxt:
                return None
        else:
            v = min(store.hi[i], nxt - 1)
            if v < store.lo[i]:
                return None
        ks[i] = v
        nxt = v
    return tuple(ks) + (inst.S,)


def fresh_parts(inst, seed_late=True):
    store = DomainStore.initial(inst)
    stats = SearchStats()
    inc = Incumbent()
    if seed_late:
        late = max_backroom_policy(inst)
        inc.consider(late, evaluate_b_wq(inst, late)[1])
    return store, stats, inc


# ---------------------------------------------------------------------------
# domain store


def test_initial_domains():
    store = DomainStore.initial(EXAMPLE)
    assert store.lo == [0, 1, 2] and store.hi == [3, 4, 5]
    assert store.contains(OPT_POLICY) and store.contains((3, 4, 5, 6))
    assert not store.contains((4, 5, 6, 6))


def test_shrink_and_raise_propagate():
    store = DomainStore.initial(EXAMPLE)
    store.shrink_hi(2, 3)
    assert store.hi == [1, 2, 3]   # upper bounds cascade leftward
    store = DomainStore.initial(EXAMPLE)
    store.raise_lo(0, 2)
    assert store.lo == [2, 3, 4]   # lower bounds cascade rightward


def test_emptying_a_domain_raises():
    # a shrink that would empty the shaved range raises and moves nothing,
    # not even the neighbours it would cascade to; so does a constructor
    # whose normalizing leaves an empty range
    store = DomainStore.initial(EXAMPLE)   # lo [0, 1, 2], hi [3, 4, 5]
    for shrink, i, bound in ((store.shrink_hi, 1, 0), (store.raise_lo, 1, 5)):
        with pytest.raises(ValueError):
            shrink(i, bound)
        assert store.snapshot() == ((0, 1, 2), (3, 4, 5))
    store.raise_lo(0, 3)
    assert store.snapshot() == ((3, 4, 5), (3, 4, 5))
    for shrink, i, bound in ((store.shrink_hi, 2, 4), (store.raise_lo, 0, 4),
                             (store.shrink_hi, 0, 2), (store.raise_lo, 2, 6)):
        with pytest.raises(ValueError):
            shrink(i, bound)
        assert store.snapshot() == ((3, 4, 5), (3, 4, 5))
    for lo, hi in (([2, 0], [2, 2]), ([3, 0], [5, 3]), ([0, 0], [5, 0])):
        with pytest.raises(ValueError):
            DomainStore(lo=lo, hi=hi)


def test_copy_is_independent():
    store = DomainStore.initial(EXAMPLE)
    other = store.copy()
    other.shrink_hi(0, 1)
    assert store.hi == [3, 4, 5] and other.hi[0] == 1
    assert store.snapshot() == ((0, 1, 2), (3, 4, 5))


def test_constructor_normalizes():
    store = DomainStore(lo=[0, 0, 0], hi=[5, 5, 5])
    assert store.lo == [0, 1, 2] and store.hi == [3, 4, 5]
    # search on the normalized store matches search on the initial box
    runs = []
    for store in (DomainStore(lo=[0, 0, 0], hi=[5, 5, 5]), DomainStore.initial(EXAMPLE)):
        _, stats, inc = fresh_parts(EXAMPLE)
        search(EXAMPLE, store, inc, stats)
        runs.append((inc.policy, inc.wq, stats.nodes, stats.shave_iterations, stats.evaluations))
    assert runs[0] == runs[1]
    assert runs[0][0] == OPT_POLICY and runs[0][2] == 24


def test_cascading_shrinks_match_a_full_normalize():
    # shrink_hi and raise_lo cascade from the shaved index only; a shrink
    # raises exactly when a full _normalize of the same bound finds an empty
    # range, and leaves the box as it was, and otherwise gives its box
    rng = random.Random(67)
    kinds = {"cascade": 0, "rejected": 0}
    for _ in range(9000):
        n = rng.randint(1, 10)
        s = rng.randint(n + 1, 3 * n + 4)
        lo = sorted(rng.sample(range(s), n))
        hi = [max(a, b) for a, b in zip(lo, sorted(rng.sample(range(s), n)))]
        store = DomainStore(lo, hi)
        before = store.snapshot()
        i = rng.randrange(n)
        ref = store.copy()
        bound = rng.randint(store.lo[i] - 2, store.hi[i] + 2)
        if rng.random() < 0.5:
            shrink = store.shrink_hi
            ref.hi[i] = min(ref.hi[i], bound)
        else:
            shrink = store.raise_lo
            ref.lo[i] = max(ref.lo[i], bound)
        bound_only = ref.snapshot()
        try:
            ref._normalize()
        except ValueError:
            with pytest.raises(ValueError):
                shrink(i, bound)
            assert store.snapshot() == before
            kinds["rejected"] += 1
            continue
        shrink(i, bound)
        assert store.snapshot() == ref.snapshot()
        kinds["cascade"] += store.snapshot() != bound_only
    assert min(kinds.values()) >= 300, kinds


# ---------------------------------------------------------------------------
# corner completions


def test_corners_of_full_box():
    store = DomainStore.initial(EXAMPLE)
    assert gmin(EXAMPLE, store) == min_wait_policy(EXAMPLE)
    assert gmax(EXAMPLE, store) == max_backroom_policy(EXAMPLE)


def test_corners_honor_fixed_values():
    store = DomainStore.initial(EXAMPLE)   # lo [0, 1, 2], hi [3, 4, 5]
    assert gmin(EXAMPLE, store, (3,), 1) == (0, 3, 4, 6)
    assert gmax(EXAMPLE, store, (2,), 1) == (1, 2, 5, 6)
    # a search prefix: gmin packs upward from its last value, gmax takes hi
    assert gmin(EXAMPLE, store, (1, 3)) == (1, 3, 4, 6)
    assert gmin(EXAMPLE, store, (3,)) == (3, 4, 5, 6)
    assert gmax(EXAMPLE, store, (0,)) == (0, 4, 5, 6)
    # one fixed index: gmax packs downward into it from hi
    assert gmax(EXAMPLE, store, (2,), 2) == (0, 1, 2, 6)
    assert gmax(EXAMPLE, store, (3,), 2) == (1, 2, 3, 6)
    assert gmin(EXAMPLE, store, (0,), 0) == (0, 1, 2, 6)


def _random_store(rng, inst, max_shrinks=None):
    """The initial box after a few random shrinks, up to 2N by default; now
    and then one would empty a domain, and must raise and leave the box as
    it was."""
    store = DomainStore.initial(inst)
    for _ in range(rng.randint(0, 2 * inst.N if max_shrinks is None else max_shrinks)):
        i = rng.randrange(inst.N)
        lo, hi = store.lo[i], store.hi[i]
        if rng.random() < 0.5:
            shrink, empty = store.shrink_hi, lo - 1
        else:
            shrink, empty = store.raise_lo, hi + 1
        if rng.random() < 0.02:
            before = store.snapshot()
            with pytest.raises(ValueError):
                shrink(i, empty)
            assert store.snapshot() == before
        else:
            shrink(i, rng.randint(lo, hi))
    return store


def _compare_spliced_corners(rng, draw_instance, count, max_shrinks=None):
    """Checks gmin and gmax against the reference sweeps on ``count`` random
    (box, head) cases; returns how many cases had a run packed up from
    head, one packed down to it, and such runs longer than _SHORT_RUN,
    which the corners bisect."""
    cases = packed_up = packed_down = long_up = long_down = 0
    while cases < count:
        inst = draw_instance(rng)
        n = inst.N
        store = _random_store(rng, inst, max_shrinks)
        for _ in range(5):
            if rng.random() < 0.5:
                # a search prefix, drawn the way search branches
                head = ()
                for t in range(rng.randint(0, n)):
                    floor = head[-1] + 1 if head else 0
                    head += (rng.randint(max(store.lo[t], floor), store.hi[t]),)
                start = 0
            else:
                # a probe's single fixed index: an end of its domain, as the
                # probes fix it, or any value in between
                start = rng.randrange(n)
                lo, hi = store.lo[start], store.hi[start]
                head = (rng.choice((lo, hi, rng.randint(lo, hi))),)
            fixed = {start + t: v for t, v in enumerate(head)}
            want_lo, want_hi = sweep_gmin(inst, store, fixed), sweep_gmax(inst, store, fixed)
            assert gmin(inst, store, head, start) == want_lo, (inst, store, head, start)
            assert gmax(inst, store, head, start) == want_hi, (inst, store, head, start)
            cases += 1
            if head:
                # the runs packed next to head differ from plain lo and hi
                end = start + len(head)
                up = sum(a != b for a, b in zip(want_lo[end:n], store.lo[end:]))
                down = sum(a != b for a, b in zip(want_hi[:start], store.hi[:start]))
                packed_up += up > 0
                packed_down += down > 0
                long_up += up > _SHORT_RUN
                long_down += down > _SHORT_RUN
    return packed_up, packed_down, long_up, long_down


def _large_instance(rng):
    s = rng.randint(45, 160)
    return Instance(S=s, N=rng.randint(40, s), lam=rng.uniform(0.2, 120.0),
                    mu=rng.uniform(0.2, 60.0), Bl=0.0)


def test_spliced_corners_match_the_reference_sweeps():
    rng = random.Random(59)
    packed_up, packed_down, _, _ = _compare_spliced_corners(
        rng, lambda r: random_instance(r, 2, 24), 6000)
    assert packed_up > 500 and packed_down > 200
    # boxes with N >= 40, where packed runs grow long enough to be bisected
    _, _, long_up, long_down = _compare_spliced_corners(rng, _large_instance, 1500, 20)
    assert long_up > 100 and long_down > 100, (long_up, long_down)


def test_segment_rows_extended_in_steps_match_one_built_at_once():
    rng = random.Random(71)
    for _ in range(200):
        inst = random_instance(rng, 2, 60)
        if rng.random() < 0.3:
            d = rng.randint(1, inst.N)
            inst = Instance(inst.S, inst.N, d * inst.mu * (1.0 + rng.choice((0.0, 1e-9, -3e-7))),
                            inst.mu, 0.0)
        d = rng.randint(0, inst.N)
        size = rng.randint(1, inst.S + 2)
        whole, steps = [], []
        solver_mod._extend_segment(inst, d, whole, size)
        while len(steps) < size:
            solver_mod._extend_segment(inst, d, steps, min(size, len(steps) + rng.randint(1, 5)))
        assert steps == whole and len(whole) == size, (inst, d)


def test_carried_corners_match_spliced_evaluations():
    # search's closed-form gmax, gmin and leaf corners give evaluate_b_wq's
    # B and Wq on the spliced tuples, in every regime and under heavy
    # blocking with lam/mu up to 1e12, on random normalized boxes (shrunk
    # ones too) and prefixes drawn the way search branches; no carried
    # corner is inf or nan
    rng = random.Random(89)
    draws = {"ordinary": lambda r: random_instance(r, 2, 40), "large": _large_instance,
             **{name: (lambda r, name=name: regime_instance(r, name)) for name in REGIMES},
             "deep": lambda r: Instance(S=1400, N=1200, lam=1150.0, mu=1.0, Bl=0.0),
             "heavy-blocking": _heavy_blocking_base}
    checked = dict.fromkeys(draws, 0)
    widest = 0.0
    for name, draw in draws.items():
        tol = 1e-9 if name in ("wide", "deep") else 1e-12
        for _ in range(4 if name == "deep" else 120):
            inst = draw(rng)
            store = _random_store(rng, inst, 6 if name == "deep" else None)
            corners = _Corners(inst, store)
            lrs = [math.log(inst.lam / (i * inst.mu)) for i in range(1, inst.N + 1)]
            for _ in range(5):
                head = ()
                for t in range(rng.randint(0, inst.N)):
                    floor = head[-1] + 1 if head else 0
                    head += (rng.randint(max(store.lo[t], floor), store.hi[t]),)
                prefix, a = _carried(corners, head)
                exact = math.fsum((head[i] - head[i - 1]) * lrs[i - 1] for i in range(1, len(head)))
                widest = max(widest, exact)
                d = len(head)
                pairs = [(corners.upper, gmax)] + [(corners.lower, gmin)] * (d < inst.N)
                for rows, corner in pairs:
                    got = _corner_b_wq(corners, prefix, corners.complete(rows, d, a))
                    want = evaluate_b_wq(inst, corner(inst, store, head))
                    assert all(map(math.isfinite, got)), (name, inst, head, got)
                    assert rel_close(got[0], want[0], tol) and rel_close(got[1], want[1], tol), \
                        (name, inst, store.lo, store.hi, head, got, want)
                    checked[name] += 1
    assert min(checked.values()) > 20, checked
    # prefixes whose exact q runs past float range, e^709
    assert widest > 1000.0, widest


def test_corners_are_extreme_in_wq_and_b():
    rng = random.Random(19)
    for _ in range(40):
        inst = random_instance(rng, 2, 10)
        store = DomainStore.initial(inst)
        lo_pol = gmin(inst, store)
        hi_pol = gmax(inst, store)
        b_lo, wq_lo = evaluate_b_wq(inst, lo_pol)
        b_hi, wq_hi = evaluate_b_wq(inst, hi_pol)
        for _ in range(30):
            pol = tuple(sorted(rng.sample(range(inst.S), inst.N))) + (inst.S,)
            b, wq = evaluate_b_wq(inst, pol)
            assert wq >= wq_lo - 1e-9
            assert b <= b_hi + 1e-9


# ---------------------------------------------------------------------------
# probes, replaying the worked example


def test_requirement_probe_at_lower_end():
    store, stats, inc = fresh_parts(EXAMPLE)
    out = bl_gmax_probe(EXAMPLE, store, 2, inc, stats)
    assert out == "shaved"
    assert store.lo == [0, 1, 3] and store.hi == [3, 4, 5]


def test_requirement_probe_at_upper_end():
    store, stats, inc = fresh_parts(EXAMPLE, seed_late=False)
    assert bl_gmin_probe(EXAMPLE, store, 0, inc, stats) == "shaved"
    assert store.hi == [2, 4, 5]
    assert inc.policy == (3, 4, 5, 6)
    assert bl_gmin_probe(EXAMPLE, store, 0, inc, stats) == "shaved"
    assert store.hi == [1, 4, 5]
    assert inc.policy == (2, 3, 4, 6)
    # the next completion (1,2,3,6) misses the target, so the end stays
    assert bl_gmin_probe(EXAMPLE, store, 0, inc, stats) == "stuck"
    assert store.hi == [1, 4, 5]
    assert stats.evaluations == 3


def test_wait_probe_shaves_non_improving_top():
    store, stats, inc = fresh_parts(EXAMPLE, seed_late=False)
    inc.consider(OPT_POLICY, WQ_OPT)
    assert wq_gmin_probe(EXAMPLE, store, 1, inc, stats) == "shaved"
    assert store.hi == [2, 3, 5]


def test_probe_proof_on_infeasible_singleton():
    store = DomainStore(lo=[3, 4, 5], hi=[3, 4, 5])
    stats = SearchStats()
    inc = Incumbent()
    assert bl_gmax_probe(HARD, store, 0, inc, stats) == "proof"
    # and the mirror case: a feasible top value that cannot go proves its
    # completion, now the incumbent, optimal
    assert bl_gmin_probe(EASY, store, 0, inc, stats) == "proof"
    assert inc.policy == (3, 4, 5, 6) and store.hi == [3, 4, 5]


def test_wait_probe_proof_when_nothing_can_improve():
    store, stats, inc = fresh_parts(EXAMPLE, seed_late=False)
    inc.wq = 0.0
    out = "shaved"
    while out == "shaved":
        out = wq_gmin_probe(EXAMPLE, store, 0, inc, stats)
    assert out == "proof"
    assert store.lo[0] == store.hi[0]


# ---------------------------------------------------------------------------
# shaving drivers, frozen on the worked example


def test_requirement_shave_reaches_proof():
    store, stats, inc = fresh_parts(EXAMPLE)
    assert bl_shave(EXAMPLE, store, inc, stats) == "proof"
    assert inc.policy == OPT_POLICY
    assert abs(inc.wq - WQ_OPT) < 1e-12
    assert (store.lo, store.hi) == ([0, 1, 4], [1, 2, 4])
    assert stats.shave_iterations == 13
    assert stats.evaluations == 13


def test_wait_shave_fixpoints():
    store, stats, inc = fresh_parts(EXAMPLE, seed_late=False)
    inc.consider(OPT_POLICY, WQ_OPT)
    assert wq_shave(EXAMPLE, store, inc, stats) == "fixpoint"
    assert (store.lo, store.hi) == ([0, 1, 2], [1, 2, 4])

    store, stats, inc = fresh_parts(EXAMPLE)   # all-late incumbent only
    assert wq_shave(EXAMPLE, store, inc, stats) == "fixpoint"
    assert (store.lo, store.hi) == ([0, 1, 2], [2, 4, 5])


def test_alternating_shave_reaches_proof_on_example():
    store, stats, inc = fresh_parts(EXAMPLE)
    assert alternating_shave(EXAMPLE, store, inc, stats) == "proof"
    assert inc.policy == OPT_POLICY


def test_shave_on_infeasible_box():
    store, stats, inc = fresh_parts(HARD, seed_late=False)
    assert bl_shave(HARD, store, inc, stats) == "proof"
    assert inc.policy is None


# ---------------------------------------------------------------------------
# search


def test_search_finds_the_optimum():
    store, stats, inc = fresh_parts(EXAMPLE)
    search(EXAMPLE, store, inc, stats)
    assert inc.policy == OPT_POLICY
    assert abs(inc.wq - WQ_OPT) < 1e-12
    assert stats.nodes == 24


def test_search_works_without_an_incumbent():
    store, stats, inc = fresh_parts(EXAMPLE, seed_late=False)
    search(EXAMPLE, store, inc, stats)
    assert inc.policy == OPT_POLICY


def test_search_restart_signal():
    store, stats, inc = fresh_parts(EXAMPLE)
    assert search(EXAMPLE, store, inc, stats, restart_on_improve=True) is True
    assert inc.wq < evaluate_b_wq(EXAMPLE, max_backroom_policy(EXAMPLE))[1]
    # a search that runs to the end says so, with or without the flag
    for restart in (False, True):
        store, stats, inc = fresh_parts(EXAMPLE)
        inc.consider(OPT_POLICY, WQ_OPT)
        assert search(EXAMPLE, store, inc, stats, restart_on_improve=restart) is False
    store, stats, inc = fresh_parts(EXAMPLE)
    assert search(EXAMPLE, store, inc, stats) is False
    assert inc.policy == OPT_POLICY


class _Deadline:
    """A deadline that passes after ``checks`` comparisons with the clock:
    ``perf_counter() > deadline`` asks ``deadline < perf_counter()``."""

    def __init__(self, checks):
        self.left = checks

    def __lt__(self, now):
        self.left -= 1
        return self.left < 0


def test_search_counts_exactly_on_a_timeout():
    # a deadline already passed: SolveTimeout before the first node, with
    # the stats search was handed and nothing added
    store, stats, inc = fresh_parts(EXAMPLE)
    stats.nodes, stats.evaluations = 5, 7
    with pytest.raises(SolveTimeout):
        search(EXAMPLE, store, inc, stats, deadline=time.perf_counter() - 1.0)
    assert (stats.nodes, stats.evaluations) == (5, 7)
    # a deadline that passes at the check before node k + 1: k nodes, each
    # one or two evaluations, and a search left to finish counts them all
    store, full, inc = fresh_parts(EXAMPLE)
    search(EXAMPLE, store, inc, full)
    counted = []
    for k in range(full.nodes):
        store, stats, inc = fresh_parts(EXAMPLE)
        with pytest.raises(SolveTimeout):
            search(EXAMPLE, store, inc, stats, deadline=_Deadline(k))
        assert stats.nodes == k and stats.shave_iterations == 0
        counted.append(stats.evaluations)
    store, stats, inc = fresh_parts(EXAMPLE)
    search(EXAMPLE, store, inc, stats, deadline=_Deadline(full.nodes))
    assert stats == full
    counted.append(full.evaluations)
    assert counted[0] == 0 and {b - a for a, b in zip(counted, counted[1:])} == {1, 2}


def _recursive_search(inst, store, inc, stats, restart_on_improve=False):
    """The recursive descent search replaced by its explicit stack: the
    reference for visit order, counts, the leaves offered to the incumbent
    (only those that improve on it) and the restart flag it returns."""
    n, s = inst.N, inst.S
    target = inst.Bl - EPS_B

    def descend(depth, prefix):
        stats.nodes += 1
        if depth == n:
            pol = prefix + (s,)
            b, wq = _eval(inst, pol, stats)
            return b >= target and wq < inc.wq - EPS_WQ and inc.consider(pol, wq) \
                and restart_on_improve
        if _eval(inst, gmax(inst, store, prefix), stats)[0] < target:
            return False
        if _eval(inst, gmin(inst, store, prefix), stats)[1] >= inc.wq - EPS_WQ:
            return False
        floor = prefix[-1] + 1 if depth else 0
        return any(descend(depth + 1, prefix + (v,))
                   for v in range(max(store.lo[depth], floor), store.hi[depth] + 1))

    return descend(0, ())


def _recording_consider(monkeypatch):
    """Records every policy offered to any Incumbent, in order."""
    offered = []
    consider = Incumbent.consider

    def recording(self, pol, wq):
        offered.append(pol)
        return consider(self, pol, wq)

    monkeypatch.setattr(Incumbent, "consider", recording)
    return offered


def _one_minus_ps_b(inst, pol):
    """B with the admitted share taken as 1 - P(S), which cancels under heavy
    blocking."""
    q = _balance_weights(inst, pol)
    return inst.N - inst.lam / inst.mu * (1.0 - q[inst.S] / math.fsum(q))


def _heavy_blocking_base(rng: random.Random) -> Instance:
    """S 4-14, N <= 4 and lam/mu 1e6-1e12, with Bl = 0."""
    s = rng.randint(4, 14)
    n = rng.randint(1, min(4, s))
    mu = rng.uniform(0.5, 2.0)
    return Instance(S=s, N=n, lam=mu * 10.0 ** rng.uniform(6.0, 12.0), mu=mu, Bl=0.0)


def _heavy_blocking_instance(rng: random.Random) -> Instance:
    """An instance of ``_heavy_blocking_base``, with Bl midway between the
    exact B and the 1 - P(S) B of the policy on which those two differ most
    (at least zero, since the exact B is)."""
    base = _heavy_blocking_base(rng)
    s, n, mu = base.S, base.N, base.mu
    pols = (head + (s,) for head in itertools.combinations(range(s), n))
    _, b, c = max((abs(b - c), b, c) for pol in pols
                  for b, c in [(_exact_b_wq(base, pol)[0], _one_minus_ps_b(base, pol))])
    return Instance(S=s, N=n, lam=base.lam, mu=mu, Bl=min(max((b + c) / 2, 0.0), n))


def _regime_matrix():
    """A seeded matrix of instances, three from each evaluator regime, then
    six knife edges from ``_heavy_blocking_instance``."""
    rng = random.Random(97)
    matrix = [(regime, regime_instance(rng, regime)) for regime in REGIMES for _ in range(3)]
    return matrix + [("heavy-blocking", _heavy_blocking_instance(rng)) for _ in range(6)]


def test_search_visits_nodes_in_recursive_order(monkeypatch, desk_suite):
    # the same counts, the same improving leaves offered to the incumbent in
    # the same order, the same incumbent with the same Wq and the same restart
    # point as the recursive descent over spliced corner tuples; on the
    # regime matrix too, so no carried inf or nan turns a prune decision,
    # and on its heavy-blocking knife edges, where a carried admitted share
    # taken as 1 - P(S) cancels and offers a leaf the evaluator rejects
    rng = random.Random(83)
    offered = _recording_consider(monkeypatch)
    cases = desk_suite[:100] + [random_instance(rng, 3, 12) for _ in range(60)]
    cases += [inst for _, inst in _regime_matrix()]
    leaves = 0
    for k, inst in enumerate(cases):
        restart = k % 3 == 0
        runs = []
        for fn in (search, _recursive_search):
            store, stats, inc = fresh_parts(inst)
            offered.clear()
            restarted = fn(inst, store, inc, stats, restart_on_improve=restart)
            runs.append((list(offered), stats, inc.policy, inc.wq, restarted))
        assert runs[0] == runs[1], inst
        leaves += len(runs[0][0])
    assert leaves > 150, leaves


def test_search_reaches_depths_past_the_recursion_limit(monkeypatch):
    # N = 1200 switching points: a recursive descent overflows the
    # interpreter's stack near depth 1000; the explicit stack reaches leaves,
    # at depth 1200, and times out cleanly
    base = Instance(S=1400, N=1200, lam=1150.0, mu=1.0, Bl=0.0)
    extremes = {max_backroom_policy(base), min_wait_policy(base)}
    bl = sum(evaluate_b_wq(base, pol)[0] for pol in extremes) / 2
    inst = Instance(S=1400, N=1200, lam=1150.0, mu=1.0, Bl=bl)
    offered = _recording_consider(monkeypatch)
    res = solve(inst, SolverConfig(strategy="none", time_limit=2.0))
    assert res.status == "timeout-with-incumbent" and not res.proof
    # search offered leaves of its own, each 1201 entries long
    assert set(offered) - extremes
    # the incumbent is such a leaf, with the evaluator's Wq
    assert res.incumbent not in extremes
    assert res.wq == evaluate_b_wq(inst, res.incumbent)[1]


def _dominance_cut(pol, n):
    """A dominance cut from a feasible policy, as search once recorded them:
    (start, values) with start the first index above its minimum; any
    strictly better policy must take some k_i below values[i - start]."""
    j = next((i for i in range(n) if pol[i] > i), None)
    return None if j is None else (j, tuple(pol[j:n]))


def _cut_blocks(ks, depth, store, cut):
    """The removed cut test: no policy in the node's box satisfies the cut."""
    start, values = cut
    return all((ks[i] if i < depth else store.lo[i]) >= values[i - start]
               for i in range(start, len(store.lo)))


def test_wait_corner_subsumes_dominance_cuts():
    # Whenever a cut from a feasible incumbent would block a node, the node's
    # gmin corner is no better than that incumbent, so search's wait-corner
    # bound has already pruned it: the cuts could never prune anything.
    rng = random.Random(43)
    blocked = 0
    for _ in range(150):
        inst = random_instance(rng, 3, 14)
        n = inst.N
        feasible = []
        for _ in range(30):
            pol = random_policy(rng, inst)
            b, wq = evaluate_b_wq(inst, pol)
            if b >= inst.Bl - EPS_B:
                feasible.append((pol, wq))
        cuts = [(cut, wq) for pol, wq in feasible
                if (cut := _dominance_cut(pol, n)) is not None]
        if not cuts:
            continue
        for _ in range(20):
            store = DomainStore.initial(inst)
            for i in range(n):
                store.raise_lo(i, rng.randint(store.lo[i], store.hi[i]))
            depth = rng.randint(0, n)
            ks = list(random_policy(rng, inst)[:n])
            corner = sweep_gmin(inst, store, {t: ks[t] for t in range(depth)})
            if corner is None:
                continue
            corner_wq = evaluate_b_wq(inst, corner)[1]
            for cut, cut_wq in cuts:
                if _cut_blocks(ks, depth, store, cut):
                    blocked += 1
                    assert corner_wq >= cut_wq - EPS_WQ
    assert blocked > 100


# ---------------------------------------------------------------------------
# solve


def test_heavy_blocking_with_a_large_load_is_infeasible():
    # the all-late policy's exact B lies below Bl, but only just: a share
    # taken as 1 - P(S) cancels and lifts it above
    cfgs = [SolverConfig(strategy=s) for s in STRATEGIES] + [SolverConfig(hybrid=True)]
    for inst in HEAVY_BLOCKING_INFEASIBLE:
        assert brute_force_optimum(inst) is None, inst
        assert [solve(inst, cfg).status for cfg in cfgs] == ["infeasible"] * 6, inst
        assert run_p1(inst).status == "infeasible", inst


def test_brute_force_finds_heavy_blocking_infeasible():
    # the judge's half of the pin above
    for inst in HEAVY_BLOCKING_INFEASIBLE:
        assert brute_force_optimum(inst) is None, inst


def test_solve_statuses():
    assert solve(HARD).status == "infeasible"
    res = solve(EASY)
    assert res.status == "optimal" and res.incumbent == (0, 1, 2, 6) and res.proof
    res = solve(EXAMPLE)
    assert res.status == "optimal" and res.incumbent == OPT_POLICY and res.proof


def test_solve_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="strategy"):
        solve(EXAMPLE, SolverConfig(strategy="fancy"))


def test_every_strategy_agrees_with_brute_force():
    rng = random.Random(47)
    solved = 0
    for _ in range(60):
        inst = random_instance(rng, 3, 12)
        found = brute_force_optimum(inst)
        for strat in STRATEGIES:
            res = solve(inst, SolverConfig(strategy=strat))
            if found is None:
                assert res.status == "infeasible"
            else:
                assert res.status == "optimal" and res.proof
                assert abs(res.wq - found[1]) <= 1e-9 * max(1.0, found[1])
        if found is not None:
            solved += 1
    assert solved > 20


def _fields(res):
    return (res.status, res.incumbent, res.wq, res.proof, res.stats)


def test_every_regime_agrees_with_brute_force(monkeypatch):
    # a seeded matrix of instances from each evaluator regime: every
    # strategy, plain and hybrid, proves the brute-force optimum, P1 never
    # beats it, and four threads solving the matrix match the serial run
    # field for field; each regime reaches the path it exists for, and the
    # heavy-blocking knife edges, some of them infeasible, come out right
    matrix = _regime_matrix()
    cfgs = [SolverConfig(strategy=s, hybrid=h, time_limit=None)
            for s in STRATEGIES for h in (False, True)]
    rows = {}  # per instance: {d: row size} built
    extend = solver_mod._extend_segment

    def recording_row(inst, d, row, size):
        built = rows.setdefault(inst, {})
        built[d] = max(built.get(d, 0), size)
        extend(inst, d, row, size)

    monkeypatch.setattr(solver_mod, "_extend_segment", recording_row)
    serial = []
    infeasible = 0
    for regime, inst in matrix:
        found = brute_force_optimum(inst)
        if found is None:
            # only a knife edge under heavy blocking may leave nothing feasible
            assert regime == "heavy-blocking", inst
            infeasible += 1
            for cfg in cfgs:
                res = solve(inst, cfg)
                assert res.status == "infeasible", (regime, inst, cfg)
                serial.append(_fields(res))
            assert run_p1(inst).status == "infeasible", inst
            continue
        for cfg in cfgs:
            res = solve(inst, cfg)
            assert res.status == "optimal" and res.proof, (regime, inst, cfg)
            assert abs(res.wq - found[1]) <= 1e-9 * max(1.0, found[1]), (regime, inst, cfg)
            serial.append(_fields(res))
        p1 = run_p1(inst)
        assert p1.wq >= found[1] - 1e-9 * max(1.0, found[1]), (regime, inst)
        lrs = [math.log(inst.lam / (i * inst.mu)) for i in range(1, inst.N + 1)]
        if regime == "heavy-blocking":
            # the optimum admits almost nobody
            assert evaluate_direct(inst, found[0]).pBlock > 0.99, inst
        elif regime == "wide":
            assert _workspace(inst, threading.get_ident()).a > 0
            # the optimum's q runs past float range, e^709, on the way to S
            peak = max(itertools.accumulate(
                (found[0][i] - found[0][i - 1]) * lrs[i - 1] for i in range(1, inst.N + 1)))
            assert peak > 709.0, (inst, peak)
        elif regime == "near-one":
            # a segment whose ratio is within 1e-3 of one is summed
            assert {i for i, lr in enumerate(lrs, 1) if abs(lr) < 1e-3} & set(rows[inst]), inst
        elif regime in ("heavy", "light"):
            blocked = evaluate_direct(inst, found[0]).pBlock
            assert blocked > 0.5 if regime == "heavy" else blocked < 0.01, (inst, blocked)
        else:
            # segments as long as half the capacity, in rows grown to hold them
            assert max(rows[inst].values()) > inst.S // 2, (inst, rows[inst])
    assert 0 < infeasible < 6, infeasible  # of the six knife edges
    monkeypatch.undo()
    jobs = [(inst, cfg) for _, inst in matrix for cfg in cfgs]
    threaded = [None] * len(jobs)

    def work(t):
        for k in range(t, len(jobs), 4):
            threaded[k] = _fields(solve(*jobs[k]))

    workers = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120.0)
    assert not any(worker.is_alive() for worker in workers)
    assert threaded == serial


def test_hybrid_seeds_the_heuristic_result():
    res = solve(EXAMPLE, SolverConfig(hybrid=True))
    assert res.status == "optimal" and res.incumbent == OPT_POLICY
    assert res.stats.evaluations >= run_p1(EXAMPLE).steps


def test_hybrid_walk_matches_a_standalone_walk(monkeypatch, desk_suite):
    # solve evaluates the all-late policy, where the walk starts, through its
    # memo and the thread's workspace, and the walk through a workspace it
    # builds for itself; its hinted calls must find that one at its previous
    # policy, step after step, whatever the solve's probes did before
    walks = []

    def recording(inst, deadline=None):
        walks.append(run_p1(inst, deadline, trace=True))
        return walks[-1]

    monkeypatch.setattr(solver_mod, "run_p1", recording)
    insts = desk_suite[:40]
    for inst in insts:
        solve(inst, SolverConfig(hybrid=True))
    assert len(walks) == len(insts)
    # the reference walks run in a thread of their own, on fresh workspaces
    standalone = []
    worker = threading.Thread(target=lambda: standalone.extend(
        run_p1(inst, trace=True) for inst in insts))
    worker.start()
    worker.join(timeout=60.0)
    assert not worker.is_alive() and len(standalone) == len(insts)
    for inst, got, want in zip(insts, walks, standalone):
        assert got.trace and got.trace == want.trace, inst


def test_repeat_solves_compute_alike(b_wq_calls, eval_calls, desk_suite):
    # the memo lives for one solve: a second identical solve in the same
    # thread computes as many evaluations as the first, not fewer
    for inst in desk_suite[:5]:
        for cfg in [SolverConfig(strategy=s) for s in STRATEGIES] + [SolverConfig(hybrid=True)]:
            runs = []
            for _ in range(2):
                b_wq_calls[0] = eval_calls[0] = eval_calls[1] = 0
                res = solve(inst, cfg)
                runs.append((b_wq_calls[0], *eval_calls, res.stats.evaluations))
            assert runs[0] == runs[1], (inst, cfg)
            # and where the probes run, the memo answers some of their
            # repeats: fewer of them are computed than counted
            if cfg.strategy != "none":
                assert runs[0][2] < runs[0][1], (inst, cfg, runs[0])


def test_solve_results_hold_no_memo(desk_suite):
    # results outlive their solve, and a memo kept on one would hold up to
    # _MEMO_SIZE answers per result; every way out of solve drops it
    cases = [(HARD, SolverConfig()), (EASY, SolverConfig()),
             (desk_suite[0], SolverConfig(time_limit=0.0)),
             (desk_suite[0], SolverConfig(hybrid=True, time_limit=0.0))]
    cases += [(inst, SolverConfig(strategy=s, hybrid=h))
              for inst in desk_suite[:3] for s in STRATEGIES for h in (False, True)]
    statuses = set()
    for inst, cfg in cases:
        res = solve(inst, cfg)
        statuses.add(res.status)
        assert res.stats.memo is None, (inst, cfg, res.status)
    assert statuses == {"infeasible", "optimal", "timeout-with-incumbent"}


# (nodes, shave_iterations, evaluations) per strategy, plain and hybrid
REGRESSION_COUNTS = {
    "none": ((24, 0, 38), (22, 0, 50)),
    "bl-shave": ((0, 13, 15), (0, 13, 29)),
    "wq-shave": ((23, 7, 43), (1, 11, 28)),
    "alt-shave": ((0, 13, 15), (0, 13, 29)),
    "alt-search-shave": ((0, 13, 15), (0, 13, 29)),
}


def test_solve_regression_counts_on_example():
    for strategy, rows in REGRESSION_COUNTS.items():
        for hybrid, want in zip((False, True), rows):
            res = solve(EXAMPLE, SolverConfig(strategy=strategy, hybrid=hybrid))
            assert res.status == "optimal" and res.incumbent == OPT_POLICY
            got = (res.stats.nodes, res.stats.shave_iterations, res.stats.evaluations)
            assert got == want, (strategy, hybrid)
    # the example's counts do not depend on which requirement probe runs
    # first at a variable; this instance's do
    res = solve(Instance(S=12, N=5, lam=42.0, mu=9.0, Bl=1.0), SolverConfig(strategy="alt-shave"))
    assert (res.stats.nodes, res.stats.shave_iterations, res.stats.evaluations) == (0, 75, 77)


# per-configuration sums of (nodes, shave_iterations, evaluations) over the
# first 25 desk instances; every gated timing is per evaluation, so these
# counts are what shows a change in which corners get evaluated
DESK_COUNTS = {
    "none": (2266, 0, 3621),
    "bl-shave": (150, 675, 969),
    "wq-shave": (2241, 253, 3824),
    "alt-shave": (121, 752, 997),
    "alt-search-shave": (13, 809, 880),
    "hybrid": (0, 773, 1275),
}


def test_solve_counts_on_the_desk_suite(desk_suite):
    assert desk_suite[:25] == generate(DESK_SPEC)[:25]
    for label, want in DESK_COUNTS.items():
        cfg = SolverConfig(strategy="alt-search-shave", hybrid=True) if label == "hybrid" \
            else SolverConfig(strategy=label)
        got = [0, 0, 0]
        for inst in desk_suite[:25]:
            res = solve(inst, cfg)
            assert res.status == "optimal", (label, inst)
            got = [a + b for a, b in zip(got, (res.stats.nodes, res.stats.shave_iterations,
                                               res.stats.evaluations))]
        assert tuple(got) == want, label


def test_hybrid_and_plain_walks_create_no_steps(monkeypatch, desk_suite):
    # only a traced walk builds HeuristicStep records; the hybrid's walk and
    # a default run_p1 keep nothing per step, with the same counts
    def no_step(*args):
        raise AssertionError("HeuristicStep built by an untraced walk")

    monkeypatch.setattr(heuristic_mod, "HeuristicStep", no_step)
    got = [0, 0, 0]
    for i, inst in enumerate(desk_suite[:40]):
        res = solve(inst, SolverConfig(hybrid=True))
        assert res.status == "optimal", inst
        if i < 25:
            got = [a + b for a, b in zip(got, (res.stats.nodes, res.stats.shave_iterations,
                                               res.stats.evaluations))]
        walk = run_p1(inst)
        assert walk.trace == [] and walk.steps > 0, inst
    assert tuple(got) == DESK_COUNTS["hybrid"]
    for strategy, (_, want) in REGRESSION_COUNTS.items():
        res = solve(EXAMPLE, SolverConfig(strategy=strategy, hybrid=True))
        assert (res.stats.nodes, res.stats.shave_iterations, res.stats.evaluations) == want


def test_incumbent_trace_is_monotone():
    res = solve(EXAMPLE, SolverConfig(strategy="none"))
    times = [t for t, _ in res.incumbent_trace]
    wqs = [w for _, w in res.incumbent_trace]
    assert times == sorted(times) and all(t >= 0 for t in times)
    assert all(a > b for a, b in zip(wqs, wqs[1:]))
    assert wqs[-1] == res.wq


def test_timeout_returns_the_incumbent(tall_suite):
    inst = tall_suite[0]
    res = solve(inst, SolverConfig(strategy="none", time_limit=0.0))
    assert res.status == "timeout-with-incumbent"
    assert not res.proof
    assert res.incumbent == max_backroom_policy(inst)
    assert res.wq == evaluate_b_wq(inst, res.incumbent)[1]
    res = solve(inst, SolverConfig(strategy="alt-search-shave", time_limit=0.0))
    assert res.status == "timeout-with-incumbent" and not res.proof


def test_hybrid_honors_the_deadline():
    # the two extreme policies, then one heuristic step before the deadline check
    res = solve(EXAMPLE, SolverConfig(hybrid=True, time_limit=0.0))
    assert res.status == "timeout-with-incumbent" and not res.proof
    assert res.incumbent == max_backroom_policy(EXAMPLE)
    assert res.stats.evaluations == 3


def test_solve_is_deterministic():
    a = solve(EXAMPLE, SolverConfig(strategy="alt-search-shave"))
    b = solve(EXAMPLE, SolverConfig(strategy="alt-search-shave"))
    assert (a.status, a.incumbent, a.wq, a.proof) == (b.status, b.incumbent, b.wq, b.proof)
    assert (a.stats.nodes, a.stats.shave_iterations, a.stats.evaluations) == \
           (b.stats.nodes, b.stats.shave_iterations, b.stats.evaluations)
    assert [w for _, w in a.incumbent_trace] == [w for _, w in b.incumbent_trace]


@pytest.mark.parametrize("limit", (float("nan"), -1.0, -math.inf))
def test_solve_rejects_a_nan_or_negative_time_limit(limit):
    with pytest.raises(ValueError, match="time limit"):
        solve(EXAMPLE, SolverConfig(time_limit=limit))


def test_an_infinite_time_limit_means_no_limit():
    for limit in (None, math.inf):
        res = solve(EXAMPLE, SolverConfig(hybrid=True, time_limit=limit))
        assert res.status == "optimal" and res.proof and res.incumbent == OPT_POLICY
