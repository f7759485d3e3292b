"""Self-test of the benchmark harness, on tiny passes of every workload.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names what the code reports, that each workload
runs clean, that a planted wrong answer (a wrapper
that nudges one returned Wq) raises the failure count above zero, that the
traced pass reports every per-layer metric with counts that repeat exactly,
and that a wrapped function that is renamed or bypassed fails loudly instead
of dropping its spans.  Exits non-zero on the first broken expectation.
"""

import dataclasses
import sys

import run
from calibrate import Calibrator

NUDGE = 1e-4  # relative; above every tolerance the checks allow


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def tiny(wl):
    """A few instances of the workload, drawn with a small count per capacity."""
    per_s = 40 if wl.name == "wide-walk" else 1
    stream, kept = wl.instances(seed=1, per_s_count=per_s)
    return stream[:1 if wl.name == "wide-walk" else 3], kept


def traced_counts(wl, stream, kept):
    from layers import PER_LAYER, per_layer
    from tracer import Tracer
    from workloads import CONFIGS, Oracles
    tracer = Tracer(CONFIGS)
    cal = Calibrator()
    _, outcomes = run.traced_pass(wl, stream, cal, len(stream), tracer)
    tracer.require(set(wl.spans) - {"probe"})
    oracles = Oracles()
    run.check_all(wl, outcomes, oracles, cal)
    m = per_layer(tracer, tracer.arrays(), cal, outcomes, oracles, generate_s=0.0,
                  kept=kept, overhead_s=0.0, plain_wall=1.0)
    expect(set(m) == set(PER_LAYER), f"{wl.name}: traced pass reports every per-layer metric")
    return {k: v for k, v in m.items() if PER_LAYER[k] == "count"}


def planted_wrong_answer(wl, stream):
    """Wrap the workload's entry point so its first answer comes back nudged."""
    import switchq
    from workloads import Oracles
    attr = {"desk-table": "solve", "brute-judge": "brute_force_optimum"}.get(wl.name, "run_p1")
    original = getattr(switchq, attr)
    calls = []

    def nudged(*args, **kwargs):
        res = original(*args, **kwargs)
        calls.append(1)
        if len(calls) > 1:
            return res
        if isinstance(res, tuple):
            return res[0], res[1] * (1 + NUDGE)
        return dataclasses.replace(res, wq=res.wq * (1 + NUDGE))

    setattr(switchq, attr, nudged)
    try:
        outcomes, _ = run.run_instances(wl, stream, Calibrator(), count=len(stream))
    finally:
        setattr(switchq, attr, original)
    attempted, failed = run.check_all(wl, outcomes, Oracles())
    expect(failed > 0, f"{wl.name}: a nudged Wq from switchq.{attr} is caught "
           f"(fail_ratio {failed}/{attempted})")


def planted_renames(desk, stream):
    import switchq.solver
    from tracer import Tracer, TracerError
    from workloads import CONFIGS

    original = switchq.solver.bl_shave
    del switchq.solver.bl_shave
    switchq.solver.bl_shave_renamed = original
    try:
        Tracer(CONFIGS).install()
        raised = False
    except TracerError as exc:
        raised = True
        print(f"      ({exc})")
    finally:
        del switchq.solver.bl_shave_renamed
        switchq.solver.bl_shave = original
    expect(raised, "a renamed wrapped function stops the tracer at install")

    tracer = Tracer(CONFIGS)
    wrap = tracer._wrap
    tracer._wrap = lambda name, fn: fn if name == "bl_shave" else wrap(name, fn)  # calls bypass it
    run.traced_pass(desk, stream, Calibrator(), len(stream), tracer)
    try:
        tracer.require(set(desk.spans) - {"probe"})
        raised = False
    except TracerError as exc:
        raised = True
        print(f"      ({exc})")
    expect(raised, "a wrapped function that stops producing spans fails the traced run")


def benchmark_file_matches():
    """BENCHMARK.json names exactly the metrics, units and workloads the code reports."""
    import json
    from layers import PER_LAYER
    from workloads import WORKLOADS
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
           "BENCHMARK.json per_layer matches layers.PER_LAYER")
    expect({w["name"]: w["why"] for w in spec["workloads"]}
           == {w.name: w.why for w in WORKLOADS.values()},
           "BENCHMARK.json workloads match workloads.WORKLOADS")


def main():
    run._import_package()
    from workloads import WORKLOADS, Oracles
    benchmark_file_matches()
    for wl in WORKLOADS.values():
        stream, kept = tiny(wl)
        expect(bool(stream), f"{wl.name}: seed 1 gives instances")
        outcomes, _ = run.run_instances(wl, stream, Calibrator(), count=len(stream))
        attempted, failed = run.check_all(wl, outcomes, Oracles())
        expect(attempted > 0 and failed == 0,
               f"{wl.name}: tiny pass of {len(stream)} instances is clean ({attempted} operations)")
        first, again = traced_counts(wl, stream, kept), traced_counts(wl, stream, kept)
        expect(first == again, f"{wl.name}: per-layer counts repeat exactly")
        planted_wrong_answer(wl, stream)
    desk = WORKLOADS["desk-table"]
    planted_renames(desk, tiny(desk)[0])
    print("selftest passed")


if __name__ == "__main__":
    main()
