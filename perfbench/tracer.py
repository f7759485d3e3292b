"""In-memory span tracer that wraps switchq's public functions in place.

The package looks these names up at call time, so replacing the module
attributes is enough to see every call; nothing under ``src/`` is edited.
Each span records its name, start, end, parent span and the benchmark's
instance id.  Spans are kept in memory and written out once, at the end of
the run.
"""

import time
from pathlib import Path

import numpy as np

import switchq
import switchq.core
import switchq.instances
import switchq.solver

# (module, attribute, span name); the order fixes the span codes
TARGETS = (
    (switchq.solver, "evaluate_b_wq", "b_wq"),
    (switchq.solver, "search", "search"),
    (switchq.solver, "bl_shave", "bl_shave"),
    (switchq.solver, "wq_shave", "wq_shave"),
    (switchq.solver, "alternating_shave", "alternating_shave"),
    (switchq.solver, "run_p1", "hybrid_p1"),
    (switchq.instances, "evaluate_b_wq", "probe"),
    (switchq, "solve", "solve"),
    (switchq, "run_p1", "run_p1"),
    (switchq, "brute_force_optimum", "brute"),
)
NAMES = tuple(name for _, _, name in TARGETS) + ("replay",)
CODE = {name: code for code, name in enumerate(NAMES)}

MULTI_MOVE, WIDE = 1, 2  # flag bits on b_wq spans


class TracerError(RuntimeError):
    """A wrapped function is missing or never produced the spans it should."""


def _is_multi_move(pol, prev) -> bool:
    """True unless pol equals prev or differs from it by one +-1 move."""
    if prev is None:
        return True
    moved = [a - b for a, b in zip(pol, prev) if a != b]
    return len(moved) > 1 or (len(moved) == 1 and abs(moved[0]) != 1)


class Tracer:
    """Records spans around the TARGETS while installed.

    A span is (code, start, end, parent, instance id, tag).  ``instance_id``
    is set by the benchmark before it hands an instance to the package; the
    tag of a solve span is the index of its configuration.  evaluate_b_wq
    spans are leaves: they keep their policy argument instead of a tag, and
    the move flags are derived from those after the run.
    """

    def __init__(self, configs: tuple[str, ...]):
        self.configs = configs
        self.spans: list[tuple | None] = []
        self.stack = [-1]
        self.instance_id = -1
        # (span, instance id, instance, policies in order, repair steps) per P1 walk
        self.walks: list[tuple[int, int, object, list, int]] = []
        self.replays: list[tuple[int, int]] = []  # (walk span, replay span)
        self._originals: list[tuple[object, str, object]] = []

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise TracerError("tracer already installed")
        for module, attr, name in TARGETS:
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.uninstall()
                raise TracerError(f"{module.__name__}.{attr} is missing or not callable; "
                                  f"spans named {name!r} cannot be recorded")
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def require(self, names) -> None:
        """Fail loudly when a span the workload must produce never appeared."""
        seen = {span[0] for span in self.spans}
        missing = [n for n in names if CODE[n] not in seen]
        if missing:
            raise TracerError(f"no spans recorded for {missing}: a wrapped function was "
                              "renamed or is no longer called through its module attribute")

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        code = CODE[name]
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        if name in ("b_wq", "probe"):
            def leaf(inst, pol):
                t0 = clock()
                try:
                    return fn(inst, pol)
                finally:
                    spans.append((code, t0, clock(), stack[-1], self.instance_id, pol))

            leaf.__wrapped__ = fn
            return leaf

        is_walk = name in ("run_p1", "hybrid_p1")
        is_solve = name == "solve"
        configs = self.configs

        def wrapper(*args, **kwargs):
            tag = 0
            if is_solve:
                cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
                tag = configs.index("hybrid" if cfg.hybrid else cfg.strategy)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (code, t0, t1, parent, self.instance_id, tag)
            if is_walk:
                inst = args[0] if args else kwargs["inst"]
                self.walks.append((idx, self.instance_id, inst,
                                   [step.policy for step in out.trace],
                                   sum(step.action.startswith("inc") for step in out.trace)))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def replay_walks(self, before_each) -> None:
        """Re-evaluate the policies of every walk recorded since the last
        call, in order, through evaluate_b_wq, each walk under its own
        replay span and after a call to ``before_each()``.

        P1 evaluates through a bound workspace method that no module-level
        wrapper sees, so this is how its evaluation share is measured.  The
        benchmark replays right after each instance, outside its timed
        operations, so that walk and replay run at the same machine speed.
        Appends (walk span, replay span) pairs to ``self.replays``.
        """
        b_wq = self._wrap("b_wq", switchq.core.evaluate_b_wq)
        for span, iid, inst, policies, _ in self.walks[len(self.replays):]:
            before_each()
            self.instance_id = iid
            idx = len(self.spans)
            self.spans.append(None)
            self.stack.append(idx)
            t0 = time.perf_counter()
            for pol in policies:
                b_wq(inst, pol)
            self.stack.pop()
            self.spans[idx] = (CODE["replay"], t0, time.perf_counter(), -1, iid, 0)
            self.replays.append((span, idx))

    # -- analysis -----------------------------------------------------------

    def arrays(self, wide_ids=frozenset()) -> dict[str, np.ndarray]:
        """Spans as columns; b_wq tags become MULTI_MOVE / WIDE flags.

        A call is a multi-move when its policy differs from the previous
        call's in the same top-level span (one solve, walk replay or brute
        force run, so one instance) by more than one +-1 move; the first call
        there counts as one, since the evaluator refills for it too.
        """
        code, start, end, parent, inst, extra = zip(*self.spans)
        root = list(range(len(parent)))
        for i, p in enumerate(parent):
            if p >= 0:
                root[i] = root[p]
        tag = [0] * len(code)
        last: dict[int, tuple] = {}
        b_wq, probe = CODE["b_wq"], CODE["probe"]
        for i, c in enumerate(code):
            if c == b_wq:
                pol = extra[i]
                tag[i] = (MULTI_MOVE if _is_multi_move(pol, last.get(root[i])) else 0) \
                    | (WIDE if inst[i] in wide_ids else 0)
                last[root[i]] = pol
            elif c != probe:
                tag[i] = extra[i]
        return {"code": np.array(code, np.int8), "start": np.array(start),
                "end": np.array(end), "parent": np.array(parent, np.int32),
                "root": np.array(root, np.int32), "inst": np.array(inst, np.int32),
                "tag": np.array(tag, np.int8)}

    def write(self, path: Path, columns: dict[str, np.ndarray]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(NAMES), **columns)


def self_times(dur: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part its children cover.

    Spans nest strictly (one thread, call-stack order), so children never
    overlap and their durations simply add up.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered
