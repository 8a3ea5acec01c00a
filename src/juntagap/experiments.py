"""Experiment plans, result rows, and the CSV report format.

A plan is a JSON document (``format_version: 1``) describing either a
``stats_sweep`` (a grid of (d, t, m) cells, several sampled families per
cell, exact or Monte Carlo statistics per family) or a ``junta_sweep``
(one family file, a k-range, exhaustive or heuristic junta search plus
the matching distance lower bound).

Runs are deterministic: every random draw is derived from the plan seed
via substream spawn keys, and rows are formatted with fixed precision,
so identical (plan, seed, workers) reruns produce byte-identical CSV.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable

import numpy as np

from .analysis import exact_hit_statistics, tribes_addressing_total_influence
from .errors import ClaimFailedError, FamilyFormatError, InfeasibleSubsetError
from .functions import (
    X_ENUMERATION_CAP,
    SetFamily,
    TribesAddressing,
    family_from_text,
    sample_family,
)
from .junta import best_k_junta, junta_distance_lower_bound, top_influence_junta
from .montecarlo import (
    SamplerConfig,
    estimate_family_statistics,
    sensitivity_profile,
)

PLAN_FORMAT_VERSION = 1

CSV_FIELDS = (
    "experiment_id",
    "d",
    "t",
    "m",
    "seed",
    "family_ref",
    "quantity",
    "k",
    "mode",
    "value",
    "stderr",
    "n_samples",
)

STAT_QUANTITIES = (
    "p0",
    "p1",
    "p2plus",
    "mean_hits",
    "second_factorial",
    "moment_gap",
)

#: Everything a stats sweep may report.
SWEEP_QUANTITIES = STAT_QUANTITIES + ("total_influence", "sensitivity_mean")


@dataclass(frozen=True)
class ResultRow:
    """One reported quantity; the flat schema shared by all commands."""

    experiment_id: str
    d: int
    t: int
    m: int
    seed: int
    family_ref: str
    quantity: str
    k: int | None
    mode: str
    value: float | Fraction
    stderr: float | None
    n_samples: int | None


def format_real(v) -> str:
    """Fixed 12-significant-digit rendering used everywhere in CSV output."""
    return f"{float(v):.12g}"


def write_rows(rows: Iterable[ResultRow], stream: IO[str]):
    """Write the header plus one CSV line per row (LF endings, UTF-8 stream)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in rows:
        writer.writerow(
            [
                r.experiment_id,
                r.d,
                r.t,
                r.m,
                r.seed,
                r.family_ref,
                r.quantity,
                "" if r.k is None else r.k,
                r.mode,
                format_real(r.value),
                "" if r.stderr is None else format_real(r.stderr),
                "" if r.n_samples is None else r.n_samples,
            ]
        )


def derived_seed(seed: int, *key: int) -> int:
    """A 64-bit seed deterministically derived from a master seed and a key."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def family_rng(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


# ---------------------------------------------------------------------------
# plans


@dataclass(frozen=True)
class StatsSweepPlan:
    experiment_id: str
    mode: str  # "exact" | "mc"
    seed: int
    workers: int
    cells: tuple[tuple[int, int, int], ...]  # (d, t, m)
    families_per_cell: int
    samples: int | None
    quantities: tuple[str, ...]


@dataclass(frozen=True)
class JuntaSweepPlan:
    experiment_id: str
    seed: int
    family_path: str
    k_range: tuple[int, int]
    junta_mode: str  # "exact" | "top-influence"
    budget: int | None


def parse_plan(text: str) -> StatsSweepPlan | JuntaSweepPlan:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyFormatError(f"malformed plan document: {exc}") from exc
    if not isinstance(data, dict):
        raise FamilyFormatError("plan document must be a JSON object")
    if data.get("format_version") != PLAN_FORMAT_VERSION:
        raise FamilyFormatError(
            f"unsupported plan format_version {data.get('format_version')!r}"
        )
    kind = data.get("kind")
    experiment_id = data.get("experiment_id", "experiment")
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise FamilyFormatError("plan seed must be a 64-bit unsigned integer")
    workers = data.get("workers", 1)
    if not isinstance(workers, int) or workers < 1:
        raise FamilyFormatError("workers must be a positive integer")

    if kind == "stats_sweep":
        mode = data.get("mode", "exact")
        if mode not in ("exact", "mc"):
            raise FamilyFormatError(f"unknown mode {mode!r}")
        cells_raw = data.get("cells")
        if not isinstance(cells_raw, list) or not cells_raw:
            raise FamilyFormatError("stats_sweep needs a nonempty 'cells' list")
        cells = []
        for idx, cell in enumerate(cells_raw):
            try:
                d, t, m = int(cell["d"]), int(cell["t"]), int(cell["m"])
            except (KeyError, TypeError, ValueError) as exc:
                raise FamilyFormatError(f"cell {idx} must carry integer d, t, m") from exc
            if not 0 <= t <= d - 1:
                raise InfeasibleSubsetError(
                    f"cell {idx}: cannot draw size-{t} subsets of a universe of {d - 1}"
                )
            if m < 1:
                raise FamilyFormatError(f"cell {idx}: m must be >= 1")
            cells.append((d, t, m))
        families = data.get("families_per_cell", 1)
        if not isinstance(families, int) or families < 1:
            raise FamilyFormatError("families_per_cell must be a positive integer")
        samples = data.get("samples")
        if mode == "mc":
            if not isinstance(samples, int) or samples < 100:
                raise FamilyFormatError("mc mode needs 'samples' >= 100")
        quantities = tuple(data.get("quantities", STAT_QUANTITIES))
        for q in quantities:
            if q not in SWEEP_QUANTITIES:
                raise FamilyFormatError(f"unknown quantity {q!r}")
        if mode == "exact" and "sensitivity_mean" in quantities:
            raise FamilyFormatError("sensitivity_mean is a sampled quantity; use mode mc")
        if mode == "mc" and "total_influence" in quantities:
            raise FamilyFormatError("total_influence is exact-only; use mode exact")
        if mode == "exact":
            for d, t, m in cells:
                if d - 1 > X_ENUMERATION_CAP:
                    raise FamilyFormatError(
                        f"exact mode cell d={d} exceeds the enumeration cap "
                        f"(d-1 <= {X_ENUMERATION_CAP})"
                    )
        return StatsSweepPlan(
            experiment_id=experiment_id,
            mode=mode,
            seed=seed,
            workers=workers,
            cells=tuple(cells),
            families_per_cell=families,
            samples=samples if mode == "mc" else None,
            quantities=quantities,
        )

    if kind == "junta_sweep":
        family_path = data.get("family")
        if not isinstance(family_path, str):
            raise FamilyFormatError("junta_sweep needs a 'family' path")
        k_range = data.get("k_range")
        if (
            not isinstance(k_range, list)
            or len(k_range) != 2
            or not all(isinstance(v, int) for v in k_range)
            or k_range[0] > k_range[1]
            or k_range[0] < 0
        ):
            raise FamilyFormatError("k_range must be [k_min, k_max] with 0 <= k_min <= k_max")
        junta_mode = data.get("junta_mode", "exact")
        if junta_mode not in ("exact", "top-influence"):
            raise FamilyFormatError(f"unknown junta_mode {junta_mode!r}")
        budget = data.get("budget")
        if budget is not None and (not isinstance(budget, int) or budget < 1):
            raise FamilyFormatError("budget must be a positive integer")
        return JuntaSweepPlan(
            experiment_id=experiment_id,
            seed=seed,
            family_path=family_path,
            k_range=(k_range[0], k_range[1]),
            junta_mode=junta_mode,
            budget=budget,
        )

    raise FamilyFormatError(f"unknown plan kind {kind!r}")


# ---------------------------------------------------------------------------
# runners


def family_stat_rows(
    family: SetFamily,
    experiment_id: str,
    family_ref: str,
    seed: int,
    mode: str,
    quantities: Iterable[str] = STAT_QUANTITIES,
    cfg: SamplerConfig | None = None,
) -> list[ResultRow]:
    """Rows for the requested hit-count statistics of one family."""
    rows = []
    common = dict(
        experiment_id=experiment_id,
        d=family.d,
        t=family.t,
        m=family.m,
        seed=seed,
        family_ref=family_ref,
        k=None,
    )
    quantities = tuple(quantities)
    if mode == "exact":
        stats = exact_hit_statistics(family).as_dict()
        for q in quantities:
            if q == "total_influence":
                value = tribes_addressing_total_influence(family)
            elif q == "sensitivity_mean":
                continue
            else:
                value = stats[q]
            rows.append(
                ResultRow(
                    quantity=q,
                    mode="exact",
                    value=value,
                    stderr=None,
                    n_samples=None,
                    **common,
                )
            )
        return rows
    if cfg is None:
        raise ValueError("mc mode needs a SamplerConfig")
    estimates = estimate_family_statistics(family, cfg)
    for q in quantities:
        if q == "sensitivity_mean":
            profile = sensitivity_profile(TribesAddressing(family).handle(), cfg)
            est, err = profile.mean, profile.stderr
        elif q == "total_influence":
            continue
        else:
            est, err = estimates[q].estimate, estimates[q].stderr
        rows.append(
            ResultRow(
                quantity=q,
                mode="mc",
                value=est,
                stderr=err,
                n_samples=cfg.n_samples,
                **common,
            )
        )
    return rows


def run_stats_sweep(plan: StatsSweepPlan) -> list[ResultRow]:
    rows = []
    for ci, (d, t, m) in enumerate(plan.cells):
        for fi in range(plan.families_per_cell):
            family = sample_family(d, t, m, family_rng(plan.seed, ci, fi))
            ref = f"cell{ci}/fam{fi}"
            cfg = None
            if plan.mode == "mc":
                cfg = SamplerConfig(
                    n_samples=plan.samples,
                    seed=derived_seed(plan.seed, ci, fi, 1),
                    workers=plan.workers,
                )
            rows.extend(
                family_stat_rows(
                    family,
                    experiment_id=plan.experiment_id,
                    family_ref=ref,
                    seed=plan.seed,
                    mode=plan.mode,
                    quantities=plan.quantities,
                    cfg=cfg,
                )
            )
    return rows


def junta_rows(
    family: SetFamily,
    k: int,
    junta_mode: str,
    experiment_id: str,
    family_ref: str,
    seed: int,
    budget: int | None = None,
) -> list[ResultRow]:
    """Junta distance plus the distance lower bound at one k; checks dominance.

    Raises :class:`ClaimFailedError` if the distance undercuts the bound,
    which would falsify the bound's derivation (or reveal a bug).  The bound
    holds for every k-junta, so heuristic results are checked as well as
    exhaustive ones.
    """
    handle = TribesAddressing(family).handle()
    p1 = exact_hit_statistics(family).p1
    if junta_mode == "exact":
        kwargs = {} if budget is None else {"budget": budget}
        result = best_k_junta(handle, k, **kwargs)
    else:
        result = top_influence_junta(handle, k)
    bound = junta_distance_lower_bound(p1, k, family.t)
    if result.distance < bound:
        raise ClaimFailedError(
            f"junta-distance dominance violated at k={k}: {result.provenance} "
            f"distance {result.distance} < lower bound {bound}"
        )
    common = dict(
        experiment_id=experiment_id,
        d=family.d,
        t=family.t,
        m=family.m,
        seed=seed,
        family_ref=family_ref,
        k=k,
        mode="exact",
        stderr=None,
        n_samples=None,
    )
    return [
        ResultRow(quantity="junta_distance", value=result.distance, **common),
        ResultRow(quantity="junta_lower_bound", value=bound, **common),
    ]


def run_junta_sweep(plan: JuntaSweepPlan) -> list[ResultRow]:
    with open(plan.family_path, encoding="utf-8") as fh:
        family = family_from_text(fh.read())
    rows = []
    for k in range(plan.k_range[0], plan.k_range[1] + 1):
        rows.extend(
            junta_rows(
                family,
                k,
                plan.junta_mode,
                experiment_id=plan.experiment_id,
                family_ref=plan.family_path,
                seed=plan.seed,
                budget=plan.budget,
            )
        )
    return rows


def run_plan(plan: StatsSweepPlan | JuntaSweepPlan) -> list[ResultRow]:
    if isinstance(plan, StatsSweepPlan):
        return run_stats_sweep(plan)
    return run_junta_sweep(plan)
