"""Per-layer metrics from a traced pass.

The layers are the package's modules: core (evaluators), heuristic (P1),
solver (shaves and DFS), policies (brute force) and instances (generator).
Counts are exact and repeat bit for bit for one seed.  Times are scaled like
the end-to-end ones (see calibrate.py): every span by the reference samples
around its top-level span.  A layer the workload bypasses reads 0.
"""

import numpy as np

from tracer import CODE, MULTI_MOVE, WIDE, self_times
from workloads import CONFIGS

PER_LAYER = {
    "core.b_wq.calls": "count",
    "core.b_wq.busy_s": "s",
    "core.b_wq.us_p50": "us",
    "core.b_wq.multi_move_share": "ratio",
    "core.b_wq.wide_share": "ratio",
    "core.direct.us_p50": "us",
    "core.closed.us_p50": "us",
    "heuristic.evals": "count",
    "heuristic.busy_s": "s",
    "heuristic.repair_share": "ratio",
    "heuristic.eval_share": "ratio",
    "heuristic.self_us_per_eval": "us",
    **{f"solver.{c}.{m}": u for c in CONFIGS
       for m, u in (("nodes", "count"), ("shave_iterations", "count"),
                    ("evaluations", "count"), ("busy_s", "s"), ("eval_share", "ratio"))},
    "solver.shave.self_s": "s",
    "solver.search.self_s": "s",
    "policies.enumerated": "count",
    "policies.busy_s": "s",
    "policies.us_per_policy": "us",
    "instances.generate_s": "s",
    "instances.probe_calls": "count",
    "instances.kept": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median_us(seconds) -> float:
    return float(np.median(seconds)) * 1e6 if len(seconds) else 0.0


def per_layer(tracer, a, cal, outcomes, oracles, *, generate_s, kept, overhead_s,
              plain_wall) -> dict[str, float]:
    """Every PER_LAYER metric; ``a`` is ``tracer.arrays()`` of the traced pass."""
    code, tag, root = a["code"], a["tag"], a["root"]
    factor = {r: cal.scale(a["start"][r], a["end"][r]) for r in np.unique(root).tolist()}
    dur = (a["end"] - a["start"]) * np.array([factor[r] for r in root.tolist()])
    own = self_times(dur, a["parent"])
    m: dict[str, float] = {}

    # core: every evaluate_b_wq call of the pass, plus P1's walks replayed
    b = code == CODE["b_wq"]
    m["core.b_wq.calls"] = int(b.sum())
    m["core.b_wq.busy_s"] = float(dur[b].sum())
    m["core.b_wq.us_p50"] = _median_us(dur[b])
    m["core.b_wq.multi_move_share"] = _share(int((tag[b] & MULTI_MOVE).astype(bool).sum()), b.sum())
    m["core.b_wq.wide_share"] = _share(int((tag[b] & WIDE).astype(bool).sum()), b.sum())
    for name, calls in oracles.calls.items():
        m[f"core.{name}.us_p50"] = _median_us([(t1 - t0) * cal.scale(t0, t1) for t0, t1 in calls])

    # heuristic: walks run at top level or inside hybrid solves
    replay_s = {walk: float(dur[b & (a["parent"] == rep)].sum()) for walk, rep in tracer.replays}
    walks = tracer.walks
    evals = sum(len(policies) for _, _, _, policies, _ in walks)
    busy = float(sum(dur[span] for span, *_ in walks))
    m["heuristic.evals"] = evals
    m["heuristic.busy_s"] = busy
    m["heuristic.repair_share"] = _share(sum(r for *_, r in walks), evals)
    m["heuristic.eval_share"] = _share(sum(replay_s.values()), busy)
    m["heuristic.self_us_per_eval"] = _share(busy - sum(replay_s.values()), evals) * 1e6

    # solver: per configuration; a hybrid solve's evaluation time includes its walk's
    solves = np.flatnonzero(code == CODE["solve"])
    b_under = np.bincount(root[b], weights=dur[b], minlength=len(code))
    walk_under = np.zeros(len(code))
    for span, *_ in walks:
        walk_under[root[span]] += replay_s.get(span, 0.0)
    for i, label in enumerate(CONFIGS):
        spans = solves[tag[solves] == i]
        results = [o.parts[label] for o in outcomes if label in o.parts]
        busy = float(dur[spans].sum())
        m[f"solver.{label}.nodes"] = sum(r.stats.nodes for r in results)
        m[f"solver.{label}.shave_iterations"] = sum(r.stats.shave_iterations for r in results)
        m[f"solver.{label}.evaluations"] = sum(r.stats.evaluations for r in results)
        m[f"solver.{label}.busy_s"] = busy
        evaluating = float(b_under[spans].sum() + walk_under[spans].sum())
        m[f"solver.{label}.eval_share"] = _share(evaluating, busy)
    shaves = np.isin(code, [CODE["bl_shave"], CODE["wq_shave"], CODE["alternating_shave"]])
    m["solver.shave.self_s"] = float(own[shaves].sum())
    m["solver.search.self_s"] = float(own[code == CODE["search"]].sum())

    # policies: brute force
    brute = [o for o in outcomes if "brute" in o.parts]
    enumerated = sum(o.evaluations for o in brute)
    busy = float(dur[code == CODE["brute"]].sum())
    m["policies.enumerated"] = enumerated
    m["policies.busy_s"] = busy
    m["policies.us_per_policy"] = _share(busy, enumerated) * 1e6

    # instances: the generator, traced during set-up
    m["instances.generate_s"] = generate_s
    m["instances.probe_calls"] = int((code == CODE["probe"]).sum())
    m["instances.kept"] = kept

    m["trace.overhead_s"] = overhead_s
    m["trace.overhead_share"] = _share(overhead_s, plain_wall)
    return m
