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


def generate(spec: GenSpec) -> list[Instance]:
    """Draw instances that are feasible but not trivially solved.

    Uses the PCG64 generator seeded once for the whole run; every attempt
    draws N from {2..38}, lam from {5..99}, mu from {1..49}, and Bl from
    {1..4}, in that order, so equal seeds reproduce files byte for byte.
    Kept instances have the all-late policy feasible but beatable and the
    all-early policy infeasible.  Exhausting the attempt budget for some
    capacity emits a warning and moves on with a partial result.  Raises
    ValueError for a negative count, and for a capacity below 2, where no
    draw could ever be kept.
    """
    if spec.per_s_count < 0:
        raise ValueError(f"count per capacity must be nonnegative, got {spec.per_s_count}")
    for s in spec.s_values:
        if s < 2:
            raise ValueError(f"capacities must be at least 2, since N is drawn from 2 up; "
                             f"got S={s}")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    out: list[Instance] = []
    for s in spec.s_values:
        found = 0
        attempts = 0
        while found < spec.per_s_count:
            if attempts >= spec.max_attempts:
                warnings.warn(f"gave up after {attempts} attempts at S={s}: "
                              f"kept {found} of {spec.per_s_count}")
                break
            attempts += 1
            n = int(rng.integers(2, 39))
            lam = float(rng.integers(5, 100))
            mu = float(rng.integers(1, 50))
            bl = float(rng.integers(1, 5))
            if n > s or bl > n:
                continue
            inst = Instance(S=s, N=n, lam=lam, mu=mu, Bl=bl)
            if _worth_keeping(inst):
                out.append(inst)
                found += 1
    return out


def _worth_keeping(inst: Instance) -> bool:
    """All-late feasible, all-early infeasible, and a second feasible policy.

    The third check probes the all-late policy with k_0 lowered one step.  By
    coverage monotonicity every other policy sits at or below that probe, so
    its feasibility is equivalent to some feasible policy besides the
    all-late one existing at all.
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
