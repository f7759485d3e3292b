"""Generation and file-format tests."""

import math
import warnings

import numpy as np
import pytest

from conftest import DESK_SPEC, TALL_SPEC
from switchq import (EPS_B, GenSpec, Instance, evaluate_b_wq, generate,
                     max_backroom_policy, min_wait_policy, read_instances,
                     write_instances)
from switchq.instances import _BLOCK, _worth_keeping


def _reference_generate(spec: GenSpec, used: list[int] | None = None
                        ) -> tuple[list[Instance], list[str]]:
    """The one-attempt-at-a-time draw loop that ``generate`` must reproduce:
    four scalar draws per attempt, and ``_worth_keeping`` on every draw with
    N <= S and Bl <= N.  Returns the instances and the warnings' texts, and
    appends each capacity's attempt count to ``used`` if given."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    out: list[Instance] = []
    gave_up: list[str] = []
    used = [] if used is None else used
    for s in spec.s_values:
        found = 0
        attempts = 0
        while found < spec.per_s_count:
            if attempts >= spec.max_attempts:
                gave_up.append(f"gave up after {attempts} attempts at S={s}: "
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
        used.append(attempts)
    return out, gave_up


def _generate_with_warnings(spec: GenSpec) -> tuple[list[Instance], list[str]]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = generate(spec)
    return out, [str(w.message) for w in caught]


def test_generation_is_deterministic():
    a = generate(DESK_SPEC)
    b = generate(DESK_SPEC)
    assert a == b
    assert len(a) == 200


def test_generated_instances_match_the_sampling_plan(desk_suite):
    for inst in desk_suite:
        assert inst.S in DESK_SPEC.s_values
        assert 2 <= inst.N <= min(inst.S, 38)
        assert inst.lam == int(inst.lam) and 5 <= inst.lam <= 99
        assert inst.mu == int(inst.mu) and 1 <= inst.mu <= 49
        assert inst.Bl == int(inst.Bl) and 1 <= inst.Bl <= min(inst.N, 4)
    counts = {s: sum(i.S == s for i in desk_suite) for s in DESK_SPEC.s_values}
    assert all(c == DESK_SPEC.per_s_count for c in counts.values())


def test_generated_instances_are_nontrivial(desk_suite):
    for inst in desk_suite:
        # flow balance puts every policy's B at or above N - lam/mu, so a kept
        # instance must have that bound below its target
        assert inst.N - inst.lam / inst.mu < inst.Bl - EPS_B
        late = max_backroom_policy(inst)
        assert evaluate_b_wq(inst, late)[0] >= inst.Bl - 1e-9
        assert evaluate_b_wq(inst, min_wait_policy(inst))[0] < inst.Bl - 1e-9
        witness = (late[0] - 1,) + late[1:]
        assert evaluate_b_wq(inst, witness)[0] >= inst.Bl - 1e-9


def test_generation_warns_and_truncates_when_starved():
    # at S=2 every draw is rejected, so the budget runs out
    spec = GenSpec(s_values=(2,), per_s_count=1, seed=1, max_attempts=300)
    with pytest.warns(UserWarning, match="gave up"):
        out = generate(spec)
    assert out == []


_TWO_CAPACITIES = GenSpec(s_values=(12, 40), per_s_count=4, seed=3)
_STARVED = GenSpec(s_values=(2, 3, 8), per_s_count=3, seed=4, max_attempts=_BLOCK + 123)


@pytest.mark.parametrize("spec", [
    DESK_SPEC,
    TALL_SPEC,
    # the benchmark's four workloads at seed 1
    GenSpec(s_values=(10, 12, 14, 16, 18), per_s_count=50, seed=1),
    GenSpec(s_values=(10, 12, 14, 16, 18), per_s_count=60, seed=1),
    GenSpec(s_values=(60, 80, 100), per_s_count=100, seed=1),
    GenSpec(s_values=(300,), per_s_count=150, seed=1),
    _TWO_CAPACITIES,
    _STARVED,
    GenSpec(s_values=(8,), per_s_count=3, seed=5, max_attempts=0),
    GenSpec(s_values=(8, 9), per_s_count=0, seed=5),
], ids=["desk-spec", "tall-spec", "desk-table", "brute-judge", "tall-walk", "wide-walk",
        "two-capacities", "starved", "no-attempts", "no-count"])
def test_generation_matches_one_draw_per_attempt(spec):
    assert _generate_with_warnings(spec) == _reference_generate(spec)


def test_stream_specs_stop_partway_through_blocks():
    # the stream test covers what it claims: the first of two capacities
    # stops partway through its second block, so the second starts after a
    # rewind; starved capacities run out partway through their second block
    # (the budget is not a multiple of the block), and the capacity after
    # them stops partway through one
    used: list[int] = []
    out, gave_up = _reference_generate(_TWO_CAPACITIES, used)
    assert [i.S for i in out] == [12] * 4 + [40] * 4 and not gave_up
    assert _BLOCK < used[0] < 2 * _BLOCK
    used.clear()
    out, gave_up = _reference_generate(_STARVED, used)
    assert gave_up == [f"gave up after {_BLOCK + 123} attempts at S=2: kept 0 of 3",
                       f"gave up after {_BLOCK + 123} attempts at S=3: kept 1 of 3"]
    assert [i.S for i in out] == [3] + [8] * 3
    assert used[:2] == [_BLOCK + 123] * 2 and used[2] % _BLOCK


@pytest.mark.parametrize("spec", [
    GenSpec(s_values=(0,), per_s_count=2, seed=1),
    GenSpec(s_values=(10, 1), per_s_count=2, seed=1),
    GenSpec(s_values=(10,), per_s_count=-3, seed=1),
])
def test_generation_rejects_bad_specs(spec):
    # a capacity below 2 could never keep a draw (N >= 2), and a negative
    # count is no count; both are refused before any draw
    with pytest.raises(ValueError, match="capacit"):
        generate(spec)


def test_round_trip(tmp_path):
    insts = [
        Instance(S=6, N=3, lam=15.0, mu=3.0, Bl=0.32),
        Instance(S=10, N=4, lam=math.pi, mu=0.125, Bl=3.9999999999),
        Instance(S=3, N=1, lam=1e-30, mu=7.1e22, Bl=0.0),
        Instance(S=200, N=38, lam=99.0, mu=49.0, Bl=4.0),
    ]
    path = tmp_path / "suite.txt"
    write_instances(path, insts)
    text = path.read_text(encoding="ascii")
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line.startswith("#"):
            assert "e" not in line and "E" not in line
    assert read_instances(path) == insts


def test_file_format_details(tmp_path):
    path = tmp_path / "one.txt"
    write_instances(path, [Instance(S=6, N=3, lam=15.0, mu=3.0, Bl=0.32)])
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "# S N lam mu Bl"
    assert lines[1] == "6 3 15.0 3.0 0.32"


def test_reader_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("# header\n\n6 3 15.0 3.0 0.32\n  \n# tail\n")
    assert read_instances(path) == [Instance(S=6, N=3, lam=15.0, mu=3.0, Bl=0.32)]


@pytest.mark.parametrize("body,fragment", [
    ("6 3 15.0 3.0\n", "line 1"),
    ("6 3 15.0 3.0 0.32 9\n", "line 1"),
    ("# ok\nx 3 15.0 3.0 0.32\n", "line 2"),
    ("6 3 15.0 zero 0.32\n", "line 1"),
    ("6 9 15.0 3.0 0.32\n", "line 1"),
    ("6 3 -1.0 3.0 0.32\n", "line 1"),
])
def test_reader_reports_line_numbers(tmp_path, body, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=fragment):
        read_instances(path)


def test_reader_requires_final_newline(tmp_path):
    path = tmp_path / "chopped.txt"
    path.write_bytes(b"6 3 15.0 3.0 0.32")
    with pytest.raises(ValueError, match="final newline"):
        read_instances(path)


def test_reader_rejects_non_ascii(tmp_path):
    path = tmp_path / "funky.txt"
    path.write_bytes("# caf\xe9\n6 3 15.0 3.0 0.32\n".encode("latin-1"))
    with pytest.raises(ValueError, match="ASCII"):
        read_instances(path)


def test_writer_validates(tmp_path):
    with pytest.raises(ValueError):
        write_instances(tmp_path / "x.txt", [Instance(S=2, N=5, lam=1.0, mu=1.0, Bl=0.0)])
