"""Tests of the benchmark itself, at the shortest run length.

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the repository's default test run: they
spawn the real CLI and take about half a minute.
"""
import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# The traced child's root span ends when the command returns; writing the
# span file and interpreter teardown come after it, inside the traced wall.
SELF_TIME_TOLERANCE_S = 0.1
SELF_TIME_TOLERANCE_SHARE = 0.02


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def fixture_runs():
    out = {}
    for trace in (0, 1):
        proc = _bench("--workload", "fixture", "--seed", "5", "--seconds", "1",
                      "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        path = os.path.join(ROOT, ".bench_work", "results", f"fixture-seed5-trace{trace}.json")
        with open(path, encoding="utf-8") as fh:
            out[trace] = (proc.stdout, json.loads(proc.stdout.splitlines()[-1]), json.load(fh))
    return out


def test_benchmark_json_matches_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(name, workloads.WORKLOADS[name].why) for name in workloads.GATED]
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit_and_direction(fixture_runs, trace):
    stdout, last, _result = fixture_runs[trace]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert set(last["metrics"]) == {name for name, _u, _b in table}
    for name, unit, better in table + (run.REPORTED if not trace else ()):
        if name in last["metrics"]:
            assert last["metrics"][name]["unit"] == unit
        lines = [ln.split() for ln in stdout.splitlines()]
        assert any(ln[:1] == [name] and ln[2:5] == [unit, better, "is"] for ln in lines), name


def test_fixture_is_the_correctness_anchor(fixture_runs):
    _stdout, _last, result = fixture_runs[0]
    assert result["reported"] == {"purity": 1.0, "entropy": 0.0, "error_rate": 0.0}


def test_span_self_times_sum_to_traced_wall(fixture_runs):
    _stdout, _last, result = fixture_runs[1]
    samples = result["samples"]
    assert samples["traced_wall_s"]
    for wall, self_sum in zip(samples["traced_wall_s"], samples["traced_span_self_sum_s"]):
        assert self_sum <= wall
        assert wall - self_sum <= SELF_TIME_TOLERANCE_S + SELF_TIME_TOLERANCE_SHARE * wall


def test_self_times_subtract_direct_children_only():
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 2.0, 3.0, 1),
             ("c", 5.0, 9.0, 0)]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracing.self_times(spans)) == 10.0


def test_catalog_generator_is_seeded(tmp_path):
    first = workloads.generate("catalog", str(tmp_path / "a"), 3)
    again = workloads.generate("catalog", str(tmp_path / "b"), 3)
    other = workloads.generate("catalog", str(tmp_path / "c"), 4)
    names = ("corpus.jsonl", "vectors.txt", "taxonomy.jsonl")
    for name in names:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
    assert all(not filecmp.cmp(tmp_path / "a" / n, tmp_path / "c" / n, shallow=False)
               for n in names)
    assert first.sizes == again.sizes
    assert first.sizes["sentences"] == 2400 and first.sizes["vector_rows"] == 20500


def test_runner_stays_small():
    # A child's ru_maxrss includes its parent's resident set at fork, so
    # the runner must not pull in numpy (or generate inputs) itself.
    code = "import sys; import run; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "fixture", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
