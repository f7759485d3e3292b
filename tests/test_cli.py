"""Command-line and benchmark-harness tests, all run in process."""

import math

import pytest

from conftest import EXAMPLE, OPT_POLICY, WQ_OPT_CLOSED
from switchq import (Instance, evaluate_b_wq, max_backroom_policy, min_wait_policy,
                     read_instances, write_instances)
import switchq.cli as cli_mod
from switchq.cli import (BENCH_METHODS, SuiteRecord, TracePoint,
                         best_known_table, incumbent_at, main, mre, mre_curve,
                         read_records, read_trace_points, run_suite, trace_path,
                         write_records, write_trace_points)
from switchq.solver import Incumbent


@pytest.fixture()
def example_file(tmp_path):
    path = tmp_path / "ex.txt"
    write_instances(path, [EXAMPLE,
                           Instance(S=6, N=3, lam=15.0, mu=3.0, Bl=2.9)])
    return str(path)


@pytest.fixture()
def small_file(tmp_path):
    path = tmp_path / "small.txt"
    write_instances(path, [Instance(S=8, N=3, lam=20.0, mu=4.0, Bl=0.5),
                           Instance(S=10, N=4, lam=30.0, mu=5.0, Bl=0.6)])
    return str(path)


# ---------------------------------------------------------------------------
# subcommands


def test_eval_prints_metrics(example_file, capsys):
    rc = main(["eval", "--instance-file", example_file, "--index", "0",
               "--policy", "0,3,4,6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "policy 0,3,4,6"
    fields = dict(line.split(" ", 1) for line in out.splitlines())
    assert set(fields) == {"policy", "F", "B", "L", "Wq", "pBlock", "feasible"}
    assert abs(float(fields["Wq"]) - WQ_OPT_CLOSED) < 1e-12
    assert fields["feasible"] == "yes"


def test_eval_closed_method_and_infeasible_policy(example_file, capsys):
    rc = main(["eval", "--instance-file", example_file, "--index", "0",
               "--policy", "0,1,2,6", "--method", "closed"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "feasible no" in out


def test_heuristic_command(example_file, capsys):
    rc = main(["heuristic", "--instance-file", example_file, "--index", "0",
               "--trace"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert len([ln for ln in lines if ln.startswith(("0", "1", "2", "3"))]) == 14
    assert "policy 0,3,4,6" in lines
    assert any(ln.startswith("evaluations 14") for ln in lines)
    # without --trace only the answer is printed, and it still counts every step
    assert main(["heuristic", "--instance-file", example_file, "--index", "0"]) == 0
    plain = capsys.readouterr().out.splitlines()
    assert plain == lines[-3:] and plain[-1] == "evaluations 14"


def test_heuristic_infeasible_exit_code(example_file, capsys):
    assert main(["heuristic", "--instance-file", example_file, "--index", "1"]) == 2
    assert "infeasible" in capsys.readouterr().out
    # the suite runner records the same outcome: one evaluation, no incumbent
    records, traces = run_suite(read_instances(example_file)[1:], ["p1"], 1.0)
    assert [(r.status, r.wq, r.proof, r.evals) for r in records] == \
        [("infeasible", None, False, 1)]
    assert traces == []


def test_solve_command(example_file, capsys):
    rc = main(["solve", "--instance-file", example_file, "--index", "0",
               "--strategy", "alt-search-shave"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status optimal" in out
    assert "policy 0,3,4,6" in out
    assert "proof yes" in out


def test_solve_infeasible_exit_code(example_file):
    assert main(["solve", "--instance-file", example_file, "--index", "1",
                 "--strategy", "none"]) == 2


def test_solve_deep_search_times_out_cleanly(monkeypatch, tmp_path, capsys):
    # N = 1200: search carries prefixes deeper than the interpreter's
    # recursion limit
    base = Instance(S=1400, N=1200, lam=1150.0, mu=1.0, Bl=0.0)
    bl = (evaluate_b_wq(base, max_backroom_policy(base))[0]
          + evaluate_b_wq(base, min_wait_policy(base))[0]) / 2
    path = tmp_path / "deep.txt"
    write_instances(path, [Instance(S=1400, N=1200, lam=1150.0, mu=1.0, Bl=bl)])
    extremes = {max_backroom_policy(base), min_wait_policy(base)}
    offered = []
    consider = Incumbent.consider

    def recording(self, pol, wq):
        offered.append(pol)
        return consider(self, pol, wq)

    monkeypatch.setattr(Incumbent, "consider", recording)
    rc = main(["solve", "--instance-file", str(path), "--index", "0",
               "--strategy", "none", "--time-limit", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status timeout-with-incumbent" in out and "proof no" in out
    # search reached a leaf of its own, at depth 1200: 1201 entries with k_N
    assert any(len(pol) == 1201 for pol in set(offered) - extremes)


def test_brute_command(example_file, capsys):
    rc = main(["brute", "--instance-file", example_file, "--index", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "policy 0,3,4,6" in out
    assert main(["brute", "--instance-file", example_file, "--index", "1"]) == 2


def test_generate_command(tmp_path, capsys):
    out_file = tmp_path / "gen.txt"
    rc = main(["generate", "--s", "8,10", "--count", "2", "--seed", "42",
               "--out", str(out_file)])
    assert rc == 0
    assert "wrote 4 instances" in capsys.readouterr().out
    again = tmp_path / "gen2.txt"
    main(["generate", "--s", "8,10", "--count", "2", "--seed", "42",
          "--out", str(again)])
    assert out_file.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("s, count", [("0", "2"), ("8,1", "2"), ("8", "-3")])
def test_generate_rejects_bad_input(tmp_path, capsys, s, count):
    out_file = tmp_path / "gen.txt"
    rc = main(["generate", "--s", s, "--count", count, "--seed", "1", "--out", str(out_file)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not out_file.exists()


def test_usage_errors_exit_one(example_file, capsys):
    cases = [
        ["eval", "--instance-file", example_file, "--index", "9",
         "--policy", "0,1,2,6"],
        ["eval", "--instance-file", "no-such-file.txt", "--index", "0",
         "--policy", "0,1,2,6"],
        ["eval", "--instance-file", example_file, "--index", "0",
         "--policy", "0,x,2,6"],
        ["eval", "--instance-file", example_file, "--index", "0",
         "--policy", "0,1,6"],
        ["solve", "--instance-file", example_file, "--index", "0",
         "--strategy", "fancy"],
        ["solve", "--instance-file", example_file, "--index", "0"],
        ["bench", "--instance-file", example_file, "--methods", "p1,warp",
         "--time-limit", "1", "--out-csv", "x.csv"],
        ["nope"],
        [],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("bad", (["--time-limit", "nan"], ["--time-limit", "-1"],
                                 ["--workers", "0"], ["--checkpoints", "nan"],
                                 ["--checkpoints", "-1"], ["--checkpoints", "1,nan"],
                                 ["--checkpoints", ""],
                                 ["--methods", "p1,p1"], ["--methods", "p1,none,p1"]))
def test_bad_limits_exit_one(example_file, tmp_path, capsys, bad):
    out_csv = tmp_path / "x.csv"
    if bad[0] == "--time-limit":
        assert main(["solve", "--instance-file", example_file, "--index", "0",
                     "--strategy", "none"] + bad) == 1
        assert "time limit" in capsys.readouterr().err
    argv = ["bench", "--instance-file", example_file, "--methods", "p1",
            "--time-limit", "1", "--out-csv", str(out_csv)] + bad
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert bad[0][2:].replace("-", " ") in err
    assert not out_csv.exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "eval" in capsys.readouterr().out
    assert main(["solve", "--help"]) == 0


# ---------------------------------------------------------------------------
# suite runner and benchmark math


def test_run_suite_shapes(small_file):
    insts = read_instances(small_file)
    records, traces = run_suite(insts, ("p1", "bl-shave"), 30.0)
    assert [(r.instance_id, r.method) for r in records] == \
        [(0, "p1"), (0, "bl-shave"), (1, "p1"), (1, "bl-shave")]
    for rec in records:
        assert rec.status in ("feasible", "optimal")
        assert rec.wq is not None and rec.elapsed_s >= 0
    assert all(pt.method in ("p1", "bl-shave") for pt in traces)
    with pytest.raises(ValueError, match="unknown method"):
        run_suite(insts, ("warp",), 30.0)


def test_run_suite_parallel_matches_serial(small_file, tmp_path, monkeypatch):
    insts = read_instances(small_file)
    serial, _ = run_suite(insts, ("p1", "alt-shave"), 30.0, workers=1)
    parallel, _ = run_suite(insts, ("p1", "alt-shave"), 30.0, workers=2)
    for a, b in zip(serial, parallel):
        assert (a.instance_id, a.method, a.status, a.wq, a.proof, a.nodes) == \
               (b.instance_id, b.method, b.status, b.wq, b.proof, b.nodes)
    # a pool starts all its workers at once, so it is sized to the tasks;
    # an in-process stand-in records the sizes asked for
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", Pool)
    records, _ = run_suite(insts, ("p1", "alt-shave"), 30.0, workers=8)
    assert [(r.instance_id, r.method, r.wq) for r in records] == \
        [(r.instance_id, r.method, r.wq) for r in serial]
    run_suite(insts[:1], ("p1",), 30.0, workers=3)
    assert sizes == [4]
    empty = tmp_path / "empty.txt"
    write_instances(empty, [])
    assert main(["bench", "--instance-file", str(empty), "--methods", "p1",
                 "--time-limit", "1", "--out-csv", str(tmp_path / "e.csv"),
                 "--workers", "2"]) == 0
    assert sizes == [4] and read_records(tmp_path / "e.csv") == []


def test_run_suite_p1_honours_the_time_limit():
    # the start policy, then the deadline check before the first move
    records, traces = run_suite([EXAMPLE], ["p1"], 0.0)
    assert [(r.status, r.evals, r.proof) for r in records] == \
        [("timeout-with-incumbent", 1, False)]
    assert records[0].wq == evaluate_b_wq(EXAMPLE, max_backroom_policy(EXAMPLE))[1]
    assert [pt.wq for pt in traces] == [records[0].wq]


def test_run_suite_rejects_bad_limits():
    for limit in (math.nan, -1.0):
        with pytest.raises(ValueError, match="time limit"):
            run_suite([EXAMPLE], ["p1"], limit)
    with pytest.raises(ValueError, match="workers"):
        run_suite([EXAMPLE], ["p1"], 1.0, workers=0)
    for methods in (["p1", "p1"], ["p1", "none", "p1"]):
        with pytest.raises(ValueError, match="methods must not repeat"):
            run_suite([EXAMPLE], methods, 1.0)


def test_best_known_table_is_a_lower_envelope(small_file):
    insts = read_instances(small_file)
    records, _ = run_suite(insts, ("p1",), 30.0)
    one = best_known_table(insts, records)
    more, _ = run_suite(insts, ("p1", "alt-search-shave"), 30.0)
    two = best_known_table(insts, more)
    for idx in one:
        assert two[idx] <= one[idx] + 1e-15
        assert all(two[r.instance_id] <= r.wq + 1e-15
                   for r in more if r.wq is not None)


def test_mre_arithmetic():
    assert mre({0: 1.0, 1: 2.0}, {0: 1.0, 1: 2.0}) == 0.0
    assert abs(mre({0: 1.1}, {0: 1.0}) - 0.1) < 1e-12
    assert mre({}, {}) == 0.0
    # instances without a cost, or with nonpositive best, drop out
    assert abs(mre({0: 1.1}, {0: 1.0, 1: 5.0}) - 0.1) < 1e-12
    assert mre({0: 1.1}, {0: 0.0}) == 0.0


def test_incumbent_lookup():
    pts = [TracePoint(0, "m", 1.0, 5.0), TracePoint(0, "m", 2.0, 3.0)]
    assert incumbent_at(pts, 0.5) is None
    assert incumbent_at(pts, 1.5) == 5.0
    assert incumbent_at(pts, 9.0) == 3.0


def test_mre_curve_uses_all_late_fallback():
    inst = EXAMPLE
    fallback_wq = evaluate_b_wq(inst, max_backroom_policy(inst))[1]
    best = {0: 0.30}
    traces = [TracePoint(0, "fast", 0.5, 0.30)]
    curve = mre_curve([inst], ("fast", "idle"), traces, best, (0.1, 1.0))
    fast = dict(curve["fast"])
    idle = dict(curve["idle"])
    assert abs(fast[0.1] - (fallback_wq - 0.30) / 0.30) < 1e-12
    assert abs(fast[1.0]) < 1e-12
    assert abs(idle[1.0] - (fallback_wq - 0.30) / 0.30) < 1e-12


def test_record_csv_round_trip(tmp_path):
    records = [
        SuiteRecord(0, "p1", "feasible", 0.25, False, 0.001, 0, 14),
        SuiteRecord(0, "none", "optimal", 0.25 - 1e-12, True, 0.5, 24, 38),
        SuiteRecord(1, "p1", "infeasible", None, False, 0.0001, 0, 1),
    ]
    path = tmp_path / "r.csv"
    write_records(path, records)
    assert read_records(path) == records
    header = path.read_text().splitlines()[0]
    assert header == "instance_id,method,status,wq,proof,elapsed_s,nodes,evals"


def test_trace_csv_round_trip(tmp_path):
    pts = [TracePoint(0, "none", 0.001, 0.425), TracePoint(0, "none", 0.002, 0.306)]
    path = tmp_path / "t.csv"
    write_trace_points(path, pts)
    assert read_trace_points(path) == pts
    assert path.read_text().splitlines()[0] == "instance_id,method,t_s,wq"


def test_trace_path_naming():
    assert str(trace_path("a/b/run.csv")) == "a/b/run_trace.csv"
    assert str(trace_path("run.csv")) == "run_trace.csv"


def test_bench_command_end_to_end(small_file, tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    rc = main(["bench", "--instance-file", small_file,
               "--methods", "p1,none,alt-search-shave,hybrid",
               "--time-limit", "30", "--out-csv", str(out_csv),
               "--checkpoints", "0.5,2,inf"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out_csv.exists() and trace_path(out_csv).exists()
    records = read_records(out_csv)
    assert len(records) == 8
    methods = {r.method for r in records}
    assert methods == {"p1", "none", "alt-search-shave", "hybrid"}
    for r in records:
        if r.method != "p1":
            assert r.status == "optimal" and r.proof
    assert "mre@0.5s" in out and "mre@2s" in out and "mre@infs" in out
    # with everything solved to optimality the error column is numerically zero
    for line in out.splitlines():
        if line.startswith(("p1", "none", "alt", "hybrid")):
            for cell in line.split()[1:]:
                assert abs(float(cell)) < 1e-9
    assert all(m in BENCH_METHODS for m in methods)


def test_bench_rejects_empty_method_list(small_file, tmp_path):
    assert main(["bench", "--instance-file", small_file, "--methods", ",",
                 "--time-limit", "1", "--out-csv", str(tmp_path / "x.csv")]) == 1


def test_bench_checks_its_output_directory_first(small_file, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        pytest.fail("run_suite ran although the output directory is missing")

    monkeypatch.setattr(cli_mod, "run_suite", never)
    out_csv = tmp_path / "missing" / "b.csv"
    assert main(["bench", "--instance-file", small_file, "--methods", "p1",
                 "--time-limit", "1", "--out-csv", str(out_csv)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.txt"]


def test_infinite_wq_never_appears(small_file):
    insts = read_instances(small_file)
    records, _ = run_suite(insts, ("alt-shave",), 30.0)
    assert all(r.wq is not None and math.isfinite(r.wq) for r in records)
