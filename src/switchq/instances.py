"""Benchmark instance generation and the instance file format.

Files are plain ASCII text: one ``S N lam mu Bl`` line per instance with
single-space separators, ``#`` comment lines and blank lines ignored, reals
written positionally (never in exponent notation), and a final newline.
"""

import warnings
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from .core import (EPS_B, Instance, evaluate_b_wq, max_backroom_policy,
                   min_wait_policy, validate_instance)


@dataclass(frozen=True)
class GenSpec:
    """Sampling plan: capacities, count per capacity, seed, rejection budget."""

    s_values: tuple[int, ...]
    per_s_count: int
    seed: int
    max_attempts: int = 100_000   # per capacity


# each attempt draws (N, lam, mu, Bl) from these half-open ranges, in that order
_DRAW_LOW = (2, 5, 1, 1)
_DRAW_HIGH = (39, 100, 50, 5)
_BLOCK = 512  # attempts drawn per numpy call


def generate(spec: GenSpec) -> list[Instance]:
    """Draw instances that are feasible but not trivially solved.

    Uses the PCG64 generator seeded once for the whole run; every attempt
    draws N from {2..38}, lam from {5..99}, mu from {1..49}, and Bl from
    {1..4}, in that order, so equal seeds reproduce files byte for byte.
    Attempts are drawn in blocks of up to _BLOCK rows by one call, which
    yields the same values as one scalar call per number.  A capacity that
    stops partway through a block rewinds the generator and redraws only the
    rows it used, so the next capacity starts where one-at-a-time draws
    would have.

    Kept instances have the all-late policy feasible but beatable and the
    all-early policy infeasible.  Flow balance gives every policy
    B >= N - lam/mu, so a draw with N - lam/mu >= Bl - EPS_B is rejected
    before any evaluation: ``_worth_keeping`` would reject it too.
    Exhausting the attempt budget for some capacity emits a warning and
    moves on with a partial result.  Raises ValueError for a negative count,
    and for a capacity below 2, where no draw could ever be kept.
    """
    if spec.per_s_count < 0:
        raise ValueError(f"count per capacity must be nonnegative, got {spec.per_s_count}")
    for s in spec.s_values:
        if s < 2:
            raise ValueError(f"capacities must be at least 2, since N is drawn from 2 up; "
                             f"got S={s}")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    bits = rng.bit_generator
    out: list[Instance] = []
    for s in spec.s_values:
        found = 0
        attempts = 0
        while found < spec.per_s_count and attempts < spec.max_attempts:
            size = min(_BLOCK, spec.max_attempts - attempts)
            state = bits.state
            rows = rng.integers(_DRAW_LOW, _DRAW_HIGH, size=(size, 4)).tolist()
            for used, (n, lam, mu, bl) in enumerate(rows, 1):
                if n > s or bl > n or n - lam / mu >= bl - EPS_B:
                    continue
                inst = Instance(S=s, N=n, lam=float(lam), mu=float(mu), Bl=float(bl))
                if _worth_keeping(inst):
                    out.append(inst)
                    found += 1
                    if found == spec.per_s_count:
                        break
            attempts += used
            if used < size:
                bits.state = state
                rng.integers(_DRAW_LOW, _DRAW_HIGH, size=(used, 4))
        if found < spec.per_s_count:
            warnings.warn(f"gave up after {attempts} attempts at S={s}: "
                          f"kept {found} of {spec.per_s_count}")
    return out


def _worth_keeping(inst: Instance) -> bool:
    """All-late feasible, all-early infeasible, and a second feasible policy.

    The third check probes the all-late policy with k_0 lowered one step.  By
    coverage monotonicity every other policy sits at or below that probe, so
    its feasibility is equivalent to some feasible policy besides the
    all-late one existing at all.  ``generate`` calls this only on draws
    that pass the flow bound; on the others the all-early check would fail
    bit for bit, since the workspace forms B as N - (lam/mu) * share with a
    share of at most one.  Evaluates through the module attribute
    ``evaluate_b_wq``, so a tracer that wraps it sees every probe.
    """
    target = inst.Bl - EPS_B
    late = max_backroom_policy(inst)
    b, _ = evaluate_b_wq(inst, late)
    if b < target:
        return False
    b, _ = evaluate_b_wq(inst, min_wait_policy(inst))
    if b >= target:
        return False
    witness = (late[0] - 1,) + late[1:]
    b, _ = evaluate_b_wq(inst, witness)
    return b >= target


def _format_real(x: float) -> str:
    """Shortest decimal form that round-trips, never in exponent notation."""
    s = repr(float(x))
    if "e" in s or "E" in s:
        s = format(Decimal(s), "f")
    return s


def write_instances(path, instances) -> None:
    """Write one 'S N lam mu Bl' line per instance."""
    lines = ["# S N lam mu Bl"]
    for inst in instances:
        validate_instance(inst)
        lines.append(" ".join([str(inst.S), str(inst.N), _format_real(inst.lam),
                               _format_real(inst.mu), _format_real(inst.Bl)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_instances(path) -> list[Instance]:
    """Parse an instance file, reporting the line number of any bad line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not ASCII text: {exc}") from None
    if text and not text.endswith("\n"):
        raise ValueError(f"{path}: missing final newline")
    out: list[Instance] = []
    for ln, line in enumerate(text.splitlines(), 1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        parts = body.split()
        if len(parts) != 5:
            raise ValueError(f"{path}: line {ln}: expected 'S N lam mu Bl', "
                             f"got {len(parts)} fields")
        try:
            inst = Instance(S=int(parts[0]), N=int(parts[1]), lam=float(parts[2]),
                            mu=float(parts[3]), Bl=float(parts[4]))
            validate_instance(inst)
        except ValueError as exc:
            raise ValueError(f"{path}: line {ln}: {exc}") from None
        out.append(inst)
    return out
