"""The benchmark's four workloads: inputs from a seed, one op, its checks.

A workload turns its seed into family and plan documents in the current
working directory, then runs one op on them through the package's public
entry points.  Every op of a run sees the same inputs, so its output text
must be byte-identical to the warm-up op's, and to the reference digest
recorded for the seed in ``references.json`` when there is one.  Each
workload also checks its output against values the benchmark computes
itself from the family's sets.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

#: Standard errors within which a sampled value must match its exact value.
Z_LIMIT = 5


def import_program():
    """Import ``juntagap`` from this checkout's ``src/``, never an installed copy."""
    package = (ROOT / "src" / "juntagap").resolve()
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no juntagap sources at {package}")
    sys.path.insert(0, str(package.parent))
    import juntagap
    import juntagap.cli
    import juntagap.experiments

    if Path(juntagap.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported juntagap from {juntagap.__file__}")
    return juntagap


class Output(NamedTuple):
    """What one op produced: ``text`` is compared byte for byte, ``data`` checked."""

    text: str
    data: Any


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def second_factorial_closed_form(sets, width: int) -> Fraction:
    """``sum over i != j of 2**-|S_i u S_j|`` for 1-based sets in ``{1..width}``."""
    membership = np.zeros((len(sets), width), dtype=np.float32)
    for i, s in enumerate(sets):
        membership[i, [j - 1 for j in s]] = 1.0
    sizes = membership.sum(axis=1).astype(np.int64)
    union_counts = np.zeros(2 * width + 1, dtype=np.int64)
    for start in range(0, len(sets), 256):
        block = slice(start, start + 256)
        inter = np.rint(membership[block] @ membership.T).astype(np.int64)
        union = sizes[block, None] + sizes[None, :] - inter
        union_counts += np.bincount(union.ravel(), minlength=2 * width + 1)
    # drop the diagonal i == j, where the union is S_i itself
    union_counts -= np.bincount(sizes, minlength=2 * width + 1)
    return sum(
        (Fraction(int(c), 1 << u) for u, c in enumerate(union_counts) if c),
        Fraction(0),
    )


class Workload:
    """One seeded input set and the op the benchmark repeats on it."""

    name = ""
    #: the calibration kernel whose slowdowns track this op's: "python",
    #: "numpy", or None when neither does and wall time is reported as is
    kernel = "numpy"
    SIZES: dict[str, dict] = {}

    def __init__(self, jg, seed: int, size: str = "full"):
        self.jg = jg
        self.seed = seed
        self.p = self.SIZES[size]
        self.expected_text: str | None = None
        self.reference: str | None = None
        if size == "full" and REFERENCES.is_file():
            refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
            self.reference = refs.get(self.name, {}).get(str(seed))

    def setup(self):
        """Write the input documents into the current directory."""
        raise NotImplementedError

    def prepare_checks(self):
        """Compute the benchmark's own expected values (outside setup time)."""

    def op(self) -> Output:
        raise NotImplementedError

    def check_values(self, out: Output) -> list[str]:
        raise NotImplementedError

    def check(self, out: Output) -> list[str]:
        """Every reason ``out`` is wrong; empty when it passes."""
        problems = self.check_values(out)
        if self.reference is not None and digest(out.text) != self.reference:
            problems.append("output differs from the recorded reference")
        if self.expected_text is not None and out.text != self.expected_text:
            problems.append("output differs from the warm-up op's output")
        return problems

    def _write(self, path: str, doc):
        text = doc if isinstance(doc, str) else json.dumps(doc, indent=2) + "\n"
        Path(path).write_text(text, encoding="utf-8")


class Certify(Workload):
    name = "certify"
    kernel = "python"
    SIZES = {"full": dict(d=9, t=3, m=8), "tiny": dict(d=5, t=2, m=4)}

    def setup(self):
        p = self.p
        family = self.jg.sample_family(p["d"], p["t"], p["m"], self.seed)
        self._write("family.json", self.jg.family_to_text(family))

    def op(self) -> Output:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            try:
                self.jg.cli.main.main(["certify", "family.json"], standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code
        return Output(f"{stdout.getvalue()}exit {code}\n", code)

    def check_values(self, out: Output) -> list[str]:
        problems = []
        if out.data != 0:
            problems.append(f"certify exited {out.data}")
        lines = out.text.splitlines()
        for claim in ("monotonicity: PASS", "depth certificate: PASS"):
            if not any(line.startswith(claim) for line in lines):
                problems.append(f"no {claim!r} line")
        return problems


class PlanWorkload(Workload):
    """An ``experiment`` plan run in-process: parse_plan, run_plan, write_rows."""

    def op(self) -> Output:
        ex = self.jg.experiments
        plan = ex.parse_plan(Path("plan.json").read_text(encoding="utf-8"))
        rows = ex.run_plan(plan)
        csv_text = io.StringIO()
        ex.write_rows(rows, csv_text)
        return Output(csv_text.getvalue(), rows)


class JuntaSweep(PlanWorkload):
    name = "junta-sweep"
    # best_k_junta's gathers and bincounts slow down unlike either kernel:
    # scaling doubled this workload's spread over seeds in one of two sets
    kernel = None
    SIZES = {
        "full": dict(d=11, t=3, m=8, k_range=[0, 3]),
        "tiny": dict(d=5, t=2, m=4, k_range=[0, 2]),
    }

    def setup(self):
        p = self.p
        family = self.jg.sample_family(p["d"], p["t"], p["m"], self.seed)
        self._write("family.json", self.jg.family_to_text(family))
        self._write("plan.json", {
            "format_version": 1,
            "experiment_id": self.name,
            "kind": "junta_sweep",
            "seed": self.seed,
            "family": "family.json",
            "k_range": p["k_range"],
            "junta_mode": "exact",
        })

    def check_values(self, out: Output) -> list[str]:
        values = {(r.k, r.quantity): r.value for r in out.data}
        lo, hi = self.p["k_range"]
        problems, previous = [], None
        for k in range(lo, hi + 1):
            dist = values.get((k, "junta_distance"))
            bound = values.get((k, "junta_lower_bound"))
            if not (isinstance(dist, Fraction) and isinstance(bound, Fraction)):
                problems.append(f"k={k}: missing or inexact rows")
                continue
            if dist < bound:
                problems.append(f"k={k}: junta_distance {dist} < lower bound {bound}")
            if previous is not None and dist > previous:
                problems.append(f"k={k}: junta_distance rose to {dist} from {previous}")
            previous = dist
        return problems


class StatsExact(PlanWorkload):
    name = "stats-exact"
    SIZES = {"full": dict(d=21, t=5, m=32), "tiny": dict(d=9, t=3, m=8)}
    QUANTITIES = ["p0", "p1", "p2plus", "mean_hits", "second_factorial",
                  "moment_gap", "total_influence"]

    def setup(self):
        p = self.p
        self._write("plan.json", {
            "format_version": 1,
            "experiment_id": self.name,
            "kind": "stats_sweep",
            "mode": "exact",
            "seed": self.seed,
            "cells": [{"d": p["d"], "t": p["t"], "m": p["m"]}],
            "families_per_cell": 1,
            "quantities": self.QUANTITIES,
        })

    def prepare_checks(self):
        # run_stats_sweep draws cell 0's family 0 from this generator
        p = self.p
        family = self.jg.sample_family(
            p["d"], p["t"], p["m"], self.jg.experiments.family_rng(self.seed, 0, 0)
        )
        self.closed_mean = Fraction(p["m"], 1 << p["t"])
        self.closed_second = second_factorial_closed_form(family.sets, p["d"] - 1)

    def check_values(self, out: Output) -> list[str]:
        v = {r.quantity: r.value for r in out.data}
        if sorted(v) != sorted(self.QUANTITIES) or not all(
            isinstance(x, Fraction) for x in v.values()
        ):
            return [f"expected exact rows for {self.QUANTITIES}, got {v}"]
        problems = []
        if v["mean_hits"] != self.closed_mean:
            problems.append(f"mean_hits {v['mean_hits']} != m/2^t = {self.closed_mean}")
        if v["second_factorial"] != self.closed_second:
            problems.append(
                f"second_factorial {v['second_factorial']} != closed form {self.closed_second}"
            )
        if v["p0"] + v["p1"] + v["p2plus"] != 1:
            problems.append("p0 + p1 + p2plus != 1")
        return problems


class SampleLarge(Workload):
    name = "sample-large"
    SIZES = {
        "full": dict(joint=(101, 10, 1024), joint_samples=100_000,
                     cells=[(51, 8, 256), (101, 11, 2048)], samples=100_000,
                     sensitivity_samples=2000),
        "tiny": dict(joint=(21, 4, 16), joint_samples=1000,
                     cells=[(11, 3, 8), (65, 4, 16)], samples=1000,
                     sensitivity_samples=100),
    }

    def _family_path(self, ci: int) -> str:
        return f"family{ci}.json"

    def setup(self):
        jg, p = self.jg, self.p
        for ci, (d, t, m) in enumerate(p["cells"]):
            # the same family run_stats_sweep draws for cell ci
            family = jg.sample_family(d, t, m, jg.experiments.family_rng(self.seed, ci, 0))
            self._write(self._family_path(ci), jg.family_to_text(family))
        self._write("plan.json", {
            "format_version": 1,
            "experiment_id": self.name,
            "kind": "stats_sweep",
            "mode": "mc",
            "seed": self.seed,
            "workers": 1,
            "cells": [{"d": d, "t": t, "m": m} for d, t, m in p["cells"]],
            "families_per_cell": 1,
            "samples": p["samples"],
        })

    def prepare_checks(self):
        jg, p = self.jg, self.p
        self.joint = jg.joint_hit_statistics(*p["joint"])
        self.closed = []
        for ci, (d, t, m) in enumerate(p["cells"]):
            family = jg.family_from_text(Path(self._family_path(ci)).read_text(encoding="utf-8"))
            self.closed.append({
                "mean_hits": Fraction(m, 1 << t),
                "second_factorial": second_factorial_closed_form(family.sets, d - 1),
            })

    def op(self) -> Output:
        jg, p = self.jg, self.p
        mc, ex = jg.montecarlo, jg.experiments
        joint_cfg = mc.SamplerConfig(n_samples=p["joint_samples"], seed=self.seed, workers=1)
        p1 = mc.estimate_singleton_probability(*p["joint"], joint_cfg)
        gap = mc.estimate_moment_gap(*p["joint"], joint_cfg)
        plan = ex.parse_plan(Path("plan.json").read_text(encoding="utf-8"))
        rows = ex.run_plan(plan)
        csv_text = io.StringIO()
        ex.write_rows(rows, csv_text)
        sens_cfg = mc.SamplerConfig(n_samples=p["sensitivity_samples"], seed=self.seed, workers=1)
        profiles = []
        for ci in range(len(p["cells"])):
            family = jg.family_from_text(Path(self._family_path(ci)).read_text(encoding="utf-8"))
            handle = jg.functions.TribesAddressing(family).handle()
            profiles.append(mc.sensitivity_profile(handle, sens_cfg))
        lines = [
            f"joint p1 {p1.estimate!r} {p1.stderr!r}",
            f"joint moment_gap {gap.estimate!r} {gap.stderr!r}",
        ] + [
            f"sensitivity {ci} {pr.mean!r} {pr.stderr!r} {pr.histogram.tolist()}"
            for ci, pr in enumerate(profiles)
        ]
        text = csv_text.getvalue() + "\n".join(lines) + "\n"
        return Output(text, dict(p1=p1, gap=gap, rows=rows, profiles=profiles))

    def check_values(self, out: Output) -> list[str]:
        problems = []
        p1, gap = out.data["p1"], out.data["gap"]
        for label, est, exact in (("p1", p1, self.joint.p1),
                                  ("moment_gap", gap, self.joint.moment_gap)):
            if abs(est.estimate - float(exact)) > Z_LIMIT * est.stderr:
                problems.append(
                    f"joint {label} {est.estimate} is more than {Z_LIMIT} stderr "
                    f"({est.stderr}) from the exact {float(exact)}"
                )
        if p1.estimate < gap.estimate:
            problems.append(f"joint p1 {p1.estimate} < moment gap {gap.estimate}")
        rows = {(r.family_ref, r.quantity): r for r in out.data["rows"]}
        for ci, closed in enumerate(self.closed):
            for quantity, exact in closed.items():
                row = rows.get((f"cell{ci}/fam0", quantity))
                if row is None:
                    problems.append(f"cell {ci}: no {quantity} row")
                elif abs(row.value - float(exact)) > Z_LIMIT * row.stderr:
                    problems.append(
                        f"cell {ci}: {quantity} {row.value} is more than {Z_LIMIT} "
                        f"stderr ({row.stderr}) from the closed form {float(exact)}"
                    )
        for ci, profile in enumerate(out.data["profiles"]):
            if int(profile.histogram.sum()) != self.p["sensitivity_samples"]:
                problems.append(f"cell {ci}: sensitivity histogram does not sum to the trials")
        return problems


WORKLOADS = {w.name: w for w in (Certify, JuntaSweep, StatsExact, SampleLarge)}
