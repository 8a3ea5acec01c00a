"""Tests of the benchmark itself, at a tiny input size.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import tracing
import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
JG = workloads.import_program()
SECONDS = 0.05


def tiny_run(workload, trace, seed=3):
    return run.run_workload(JG, workload, seed, SECONDS, trace, size="tiny")


@pytest.fixture(autouse=True)
def in_tmp_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_benchmark_metric_is_emitted(workload, trace, section):
    result = tiny_run(workload, trace)
    assert result["correct"], result["failures"] or result["warmup_problems"]
    assert result["fail_frac"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_benchmark_workloads_are_the_ones_run_py_knows():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_work_counts_repeat_across_traced_runs(workload):
    originals = (JG.analysis.truth_table, JG.experiments.exact_hit_statistics,
                 JG.functions.TribesAddressing.eval, JG.cli.certify.callback)
    first, second = (tiny_run(workload, True)["metrics"] for _ in range(2))
    counts = [n for n in first if not n.endswith("self_s") and not n.startswith("trace.")]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert any(first[n]["value"] for n in counts)
    # leaving the traced block restores every wrapped function
    assert originals == (JG.analysis.truth_table, JG.experiments.exact_hit_statistics,
                         JG.functions.TribesAddressing.eval, JG.cli.certify.callback)


def test_traced_spans_nest_and_name_their_op():
    handle = JG.TribesAddressing(JG.sample_family(5, 2, 4, 1)).handle()
    with tracing.installed(JG) as tracer:
        with tracer.op(0):
            JG.analysis.check_monotone(handle)
    names = [s[0] for s in tracer.spans]
    assert names[:3] == ["op", "analysis.check_monotone", "analysis.truth_table"]
    assert all(s[4] == 0 for s in tracer.spans)
    assert tracer.spans[2][3] == 1  # truth_table's parent is check_monotone
    assert tracer.per_op()["analysis.check_monotone.edges"] == 8 * 2**7


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_corrupted_output_raises_fail_frac(workload, monkeypatch):
    op = workloads.WORKLOADS[workload].op
    calls = []

    def corrupted_second_timed_op(self):
        out = op(self)
        calls.append(1)
        if len(calls) == run.SETUP_REPEATS + 2:
            return out._replace(text=out.text[:-2] + "#\n")
        return out

    monkeypatch.setattr(workloads.WORKLOADS[workload], "op", corrupted_second_timed_op)
    result = run.run_workload(JG, workload, 3, 0.2, False, size="tiny")
    assert result["ops"] >= 2
    assert result["failed"] == 1 and result["fail_frac"] > 0
    assert not result["correct"]


def test_checks_catch_a_wrong_exact_value():
    wl = workloads.WORKLOADS["stats-exact"](JG, 3, "tiny")
    wl.setup()
    wl.prepare_checks()
    out = wl.op()
    assert wl.check(out) == []
    rows = [replace(r, value=r.value + 1) if r.quantity == "second_factorial" else r
            for r in out.data]
    assert any("second_factorial" in p for p in wl.check(out._replace(data=rows)))


def test_run_needs_the_program_sources(tmp_path):
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(11, 0, -1)]) == (6.0, pytest.approx(600 / 11))
    assert run.tail([1.0, 3.0, 2.0, 4.0]) == (2.0, 50.0)
