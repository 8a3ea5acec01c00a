import json
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from juntagap import SetFamily, family_from_text, family_to_text
from juntagap.cli import main
from juntagap.experiments import CSV_FIELDS
from juntagap.junta import JuntaResult, JuntaSpec

FIXTURE = SetFamily(d=5, t=2, sets=((1, 2), (3, 4), (1, 3), (2, 4)))


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def fixture_path(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(family_to_text(FIXTURE), encoding="utf-8")
    return str(path)


def rows_of(text):
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    return [dict(zip(CSV_FIELDS, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# gen


def test_gen_roundtrip_and_determinism(runner, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--d", "5", "--t", "2", "--m", "4", "--seed", "7"]
    assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    family = family_from_text(out1.read_text(encoding="utf-8"))
    assert (family.d, family.t, family.m, family.seed) == (5, 2, 4, 7)


def test_gen_default_schedule_to_stdout(runner):
    result = runner.invoke(main, ["gen", "--d", "9", "--seed", "1"])
    assert result.exit_code == 0
    family = family_from_text(result.output)
    assert (family.t, family.m) == (3, 8)


def test_gen_infeasible_exit_2(runner):
    result = runner.invoke(main, ["gen", "--d", "5", "--t", "5", "--m", "2"])
    assert result.exit_code == 2


def test_gen_d_below_2_exit_2(runner):
    result = runner.invoke(main, ["gen", "--d", "1"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: d must be >= 2")


# ---------------------------------------------------------------------------
# stats


def test_stats_exact_rows(runner, fixture_path):
    result = runner.invoke(main, ["stats", fixture_path])
    assert result.exit_code == 0
    rows = rows_of(result.stdout)
    by_quantity = {r["quantity"]: r for r in rows}
    assert by_quantity["p1"]["value"] == "0.25"
    assert by_quantity["mean_hits"]["value"] == "1"
    assert by_quantity["moment_gap"]["value"] == "-0.25"
    for r in rows:
        assert r["mode"] == "exact"
        assert r["stderr"] == "" and r["n_samples"] == ""
    assert result.stderr == "closed-form cross-check passed: mean_hits = m*2**-t = 1\n"


def test_stats_mc_rows_carry_stderr(runner, fixture_path):
    result = runner.invoke(
        main, ["stats", fixture_path, "--mode", "mc", "--samples", "2000", "--seed", "3"]
    )
    assert result.exit_code == 0
    for r in rows_of(result.stdout):
        assert r["mode"] == "mc"
        assert r["stderr"] != ""
        assert r["n_samples"] == "2000"


def test_stats_mc_too_few_samples_exit_2(runner, fixture_path):
    result = runner.invoke(main, ["stats", fixture_path, "--mode", "mc", "--samples", "50"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: n_samples must be >= 100")


# ---------------------------------------------------------------------------
# certify


def test_certify_passes_on_fixture(runner, fixture_path):
    result = runner.invoke(main, ["certify", fixture_path])
    assert result.exit_code == 0
    assert "monotonicity: PASS" in result.output
    assert "depth certificate: PASS" in result.output


def test_certify_self_test_fails(runner, fixture_path):
    result = runner.invoke(main, ["certify", fixture_path, "--self-test"])
    assert result.exit_code == 1
    assert "monotonicity: FAIL" in result.output


def test_certify_self_test_fails_both_checks(runner, fixture_path):
    result = runner.invoke(main, ["certify", fixture_path, "--self-test"])
    assert result.exit_code == 1
    assert "monotonicity: FAIL" in result.output
    assert "depth certificate: FAIL at x=0000 y=0000" in result.output


# ---------------------------------------------------------------------------
# junta and bound


def test_junta_k0_rows(runner, fixture_path):
    result = runner.invoke(main, ["junta", fixture_path, "--k", "0"])
    assert result.exit_code == 0
    rows = {r["quantity"]: r for r in rows_of(result.stdout)}
    assert rows["junta_distance"]["value"] == "0.4375"
    assert rows["junta_lower_bound"]["value"] == "0.125"
    assert rows["junta_distance"]["k"] == "0"


def test_junta_full_support_distance_zero(runner, fixture_path):
    result = runner.invoke(main, ["junta", fixture_path, "--k", "8"])
    rows = {r["quantity"]: r for r in rows_of(result.stdout)}
    assert rows["junta_distance"]["value"] == "0"


def test_junta_top_influence_dominance_breach_exit_1(runner, fixture_path, monkeypatch):
    # a heuristic result below the bound falsifies the bound as much as an
    # exhaustive one does
    def below_bound(f, k):
        spec = JuntaSpec(coords=(), table=np.zeros(1, dtype=np.uint8))
        return JuntaResult(spec=spec, distance=Fraction(0), provenance="top-influence")

    monkeypatch.setattr("juntagap.experiments.top_influence_junta", below_bound)
    result = runner.invoke(main, ["junta", fixture_path, "--k", "0", "--mode", "top-influence"])
    assert result.exit_code == 1
    assert result.stderr.startswith("claim failed: junta-distance dominance violated")


@pytest.mark.parametrize("mode", ["exact", "top-influence"])
def test_junta_k_above_arity_exit_2(runner, fixture_path, mode):
    result = runner.invoke(main, ["junta", fixture_path, "--k", "9", "--mode", mode])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: k must lie in 0..8")


def test_junta_budget_exit_2(runner, fixture_path):
    result = runner.invoke(main, ["junta", fixture_path, "--k", "4", "--budget", "10"])
    assert result.exit_code == 2


def test_bound_output(runner):
    result = runner.invoke(main, ["bound", "--p1", "0.25", "--k", "0", "--t", "2"])
    assert result.exit_code == 0
    assert "0.125" in result.output


# ---------------------------------------------------------------------------
# experiment


def write_plan(tmp_path, **overrides):
    plan = {
        "format_version": 1,
        "experiment_id": "test-sweep",
        "kind": "stats_sweep",
        "mode": "exact",
        "seed": 42,
        "cells": [{"d": 5, "t": 2, "m": 4}, {"d": 9, "t": 3, "m": 8}, {"d": 17, "t": 4, "m": 16}],
        "families_per_cell": 20,
        "quantities": ["p1"],
    }
    plan.update(overrides)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    return str(path)


def test_experiment_sweep_row_count_and_range(runner, tmp_path):
    plan = write_plan(tmp_path)
    result = runner.invoke(main, ["experiment", plan])
    assert result.exit_code == 0
    rows = rows_of(result.stdout)
    assert len(rows) == 3 * 20
    assert all(r["quantity"] == "p1" for r in rows)
    assert all(0.0 <= float(r["value"]) <= 1.0 for r in rows)


def test_experiment_rerun_byte_identical(runner, tmp_path):
    plan = write_plan(tmp_path)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert runner.invoke(main, ["experiment", plan, "--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, ["experiment", plan, "--out", str(out2)]).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().count(b"\r") == 0


def test_experiment_junta_sweep_nonincreasing(runner, tmp_path, fixture_path):
    plan_path = tmp_path / "jplan.json"
    plan_path.write_text(
        json.dumps(
            {
                "format_version": 1,
                "experiment_id": "ksweep",
                "kind": "junta_sweep",
                "seed": 0,
                "family": fixture_path,
                "k_range": [0, 8],
                "junta_mode": "exact",
            }
        ),
        encoding="utf-8",
    )
    result = runner.invoke(main, ["experiment", str(plan_path)])
    assert result.exit_code == 0
    distances = [
        float(r["value"])
        for r in rows_of(result.stdout)
        if r["quantity"] == "junta_distance"
    ]
    assert len(distances) == 9
    assert all(a >= b for a, b in zip(distances, distances[1:]))


def test_experiment_infeasible_cell_exit_2(runner, tmp_path):
    plan = write_plan(tmp_path, cells=[{"d": 5, "t": 5, "m": 4}])
    result = runner.invoke(main, ["experiment", plan])
    assert result.exit_code == 2


def test_experiment_zero_workers_exit_2(runner, tmp_path):
    plan = write_plan(tmp_path, mode="mc", samples=500, workers=0)
    result = runner.invoke(main, ["experiment", plan])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: workers must be a positive integer")


def test_experiment_malformed_plan_exit_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    result = runner.invoke(main, ["experiment", str(path)])
    assert result.exit_code == 2


def test_experiment_rejects_mode_mismatched_quantities(runner, tmp_path):
    plan = write_plan(tmp_path, quantities=["sensitivity_mean"])  # exact mode
    assert runner.invoke(main, ["experiment", plan]).exit_code == 2
    plan = write_plan(tmp_path, mode="mc", samples=500, quantities=["total_influence"])
    assert runner.invoke(main, ["experiment", plan]).exit_code == 2


def test_experiment_mc_mode_rows(runner, tmp_path):
    plan = write_plan(
        tmp_path,
        mode="mc",
        samples=500,
        cells=[{"d": 9, "t": 3, "m": 8}],
        families_per_cell=2,
        quantities=["p1", "moment_gap"],
    )
    result = runner.invoke(main, ["experiment", plan])
    assert result.exit_code == 0
    rows = rows_of(result.stdout)
    assert len(rows) == 4
    for r in rows:
        assert r["mode"] == "mc"
        assert r["stderr"] != ""
        assert r["n_samples"] == "500"


# ---------------------------------------------------------------------------
# sensitivity


def test_sensitivity_command(runner, fixture_path, tmp_path):
    out = tmp_path / "sens.csv"
    result = runner.invoke(
        main,
        ["sensitivity", fixture_path, "--samples", "500", "--seed", "2", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert "mean sensitivity" in result.output
    rows = rows_of(out.read_text(encoding="utf-8"))
    assert rows[0]["quantity"] == "sensitivity_mean"
    assert rows[0]["mode"] == "mc"


# ---------------------------------------------------------------------------
# malformed family file


def test_malformed_family_exit_2(runner, tmp_path):
    path = tmp_path / "bad_family.json"
    path.write_text('{"format_version": 1, "d": 5, "t": 2, "m": 1, "sets": [[1]]}')
    result = runner.invoke(main, ["stats", str(path)])
    assert result.exit_code == 2
