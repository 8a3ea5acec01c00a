"""Command-line front end.

Exit codes: 0 on success and when all certificates pass; 1 when a
machine-checked claim fails (a certificate violation or a dominance
breach -- a genuine discovery or bug, not a usage problem); 2 on usage,
infeasibility, or work-budget errors.
"""

from __future__ import annotations

import functools
import sys

import click

from .analysis import check_monotone, depth_certificate
from .errors import ClaimFailedError, JuntagapError
from .experiments import (
    ResultRow,
    family_stat_rows,
    format_real,
    junta_rows,
    parse_plan,
    run_plan,
    write_rows,
)
from .functions import (
    FunctionHandle,
    SetFamily,
    TribesAddressing,
    default_schedule,
    family_from_text,
    family_to_text,
    sample_family,
)
from .junta import junta_distance_lower_bound
from .montecarlo import SamplerConfig, sensitivity_profile

SEED_RANGE = click.IntRange(0, 2**64 - 1)


def _forward_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ClaimFailedError as exc:
            click.echo(f"claim failed: {exc}", err=True)
            sys.exit(1)
        except JuntagapError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _load_family(path: str) -> SetFamily:
    with open(path, encoding="utf-8") as fh:
        return family_from_text(fh.read())


def _emit_rows(rows: list[ResultRow], out: str | None):
    if out is None:
        write_rows(rows, sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write_rows(rows, fh)


@click.group()
def main():
    """Clause-family constructions, exact certificates, junta searches."""


@main.command()
@click.option("--d", "d", type=int, required=True, help="Depth parameter (d-1 address bits).")
@click.option("--t", "t", type=int, default=None, help="Clause size (default: ceil(sqrt(d))).")
@click.option("--m", "m", type=int, default=None, help="Clause count (default: 2**t).")
@click.option("--seed", type=SEED_RANGE, default=0, show_default=True)
@click.option("--out", type=click.Path(writable=True), default=None, help="Write the family document here.")
@_forward_errors
def gen(d, t, m, seed, out):
    """Sample a clause family and write its document."""
    if t is None or m is None:
        t_default, m_default = default_schedule(d)
        t = t_default if t is None else t
        m = m_default if m is None else m
    family = sample_family(d, t, m, seed)
    doc = family_to_text(family)
    if out is None:
        click.echo(doc, nl=False)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(doc)
        click.echo(f"wrote family d={d} t={t} m={m} seed={seed} to {out}")


@main.command()
@click.argument("family_path", type=click.Path(exists=True))
@click.option("--mode", type=click.Choice(["exact", "mc"]), default="exact", show_default=True)
@click.option("--samples", type=int, default=100_000, show_default=True, help="Sample count in mc mode.")
@click.option("--seed", type=SEED_RANGE, default=0, show_default=True)
@click.option("--workers", type=click.IntRange(1, None), default=1, show_default=True)
@click.option("--out", type=click.Path(writable=True), default=None, help="CSV output path (default: stdout).")
@_forward_errors
def stats(family_path, mode, samples, seed, workers, out):
    """Hit-count statistics of one family (exact enumeration or sampled)."""
    family = _load_family(family_path)
    cfg = None
    if mode == "mc":
        cfg = SamplerConfig(n_samples=samples, seed=seed, workers=workers)
    rows = family_stat_rows(
        family,
        experiment_id="stats",
        family_ref=family_path,
        seed=seed,
        mode=mode,
        cfg=cfg,
    )
    _emit_rows(rows, out)
    if mode == "exact":
        mean_hits = next(r.value for r in rows if r.quantity == "mean_hits")
        click.echo(
            f"closed-form cross-check passed: mean_hits = m*2**-t = "
            f"{format_real(mean_hits)}",
            err=True,
        )


def _corrupt_bottom(handle: FunctionHandle) -> FunctionHandle:
    """Flip the output at the all-zeros word (used by certify --self-test)."""
    inner_word, inner_values = handle.eval_word, handle.eval_values

    def eval_word(w):
        out = inner_word(w)
        return 1 - out if w.value == 0 else out

    def eval_values(values):
        out = inner_values(values).copy()
        out[values == 0] ^= 1
        return out

    return FunctionHandle(
        arity=handle.arity,
        label=f"corrupted({handle.label})",
        eval_word=eval_word,
        eval_values=None if inner_values is None else eval_values,
    )


@main.command()
@click.argument("family_path", type=click.Path(exists=True))
@click.option(
    "--self-test",
    is_flag=True,
    help="Corrupt one table entry first; the monotonicity check must then fail.",
)
@_forward_errors
def certify(family_path, self_test):
    """Certify monotonicity and the depth-d restriction structure."""
    family = _load_family(family_path)
    cf = TribesAddressing(family)
    handle = cf.handle()
    if self_test:
        handle = _corrupt_bottom(handle)

    violation = check_monotone(handle)
    if violation is None:
        click.echo("monotonicity: PASS (no violating edge)")
    else:
        click.echo(
            f"monotonicity: FAIL at coordinate {violation.coordinate}: "
            f"f({violation.lower}) = 1 > f({violation.upper}) = 0"
        )
    cert = depth_certificate(cf)
    if cert.passed:
        sweep = "exhaustive" if cert.exhaustive else "probed"
        click.echo(
            f"depth certificate: PASS (decision-tree depth <= {cert.depth_bound}, "
            f"{sweep} leaf sweep)"
        )
    else:
        click.echo(
            f"depth certificate: FAIL at x={cert.failing_x} y={cert.failing_y}"
        )
    if violation is not None or not cert.passed:
        sys.exit(1)


@main.command()
@click.argument("family_path", type=click.Path(exists=True))
@click.option("--k", type=click.IntRange(0, None), required=True, help="Junta size.")
@click.option(
    "--mode",
    type=click.Choice(["exact", "top-influence"]),
    default="exact",
    show_default=True,
)
@click.option("--budget", type=click.IntRange(1, None), default=None, help="Work budget for the exhaustive search, in transform additions: n*2**n + C(n,k)*k*2**k at host arity n.")
@click.option("--seed", type=SEED_RANGE, default=0, show_default=True)
@click.option("--out", type=click.Path(writable=True), default=None)
@_forward_errors
def junta(family_path, k, mode, budget, seed, out):
    """Best (or heuristic) k-junta distance plus its lower bound."""
    family = _load_family(family_path)
    rows = junta_rows(
        family,
        k,
        mode,
        experiment_id="junta",
        family_ref=family_path,
        seed=seed,
        budget=budget,
    )
    _emit_rows(rows, out)


@main.command()
@click.option("--p1", type=click.FloatRange(0.0, 1.0), required=True, help="Singleton-hit probability.")
@click.option("--k", type=click.IntRange(0, None), required=True)
@click.option("--t", type=click.IntRange(0, None), required=True)
@_forward_errors
def bound(p1, k, t):
    """Distance lower bound forced on every k-junta (pure arithmetic)."""
    click.echo(f"junta_lower_bound = {format_real(junta_distance_lower_bound(p1, k, t))}")


@main.command()
@click.argument("plan_path", type=click.Path(exists=True))
@click.option("--out", type=click.Path(writable=True), default=None, help="CSV output path (default: stdout).")
@_forward_errors
def experiment(plan_path, out):
    """Run a plan document and emit its CSV rows."""
    with open(plan_path, encoding="utf-8") as fh:
        plan = parse_plan(fh.read())
    rows = run_plan(plan)
    _emit_rows(rows, out)


@main.command()
@click.argument("family_path", type=click.Path(exists=True))
@click.option("--samples", type=int, default=1000, show_default=True)
@click.option("--seed", type=SEED_RANGE, default=0, show_default=True)
@click.option("--workers", type=click.IntRange(1, None), default=1, show_default=True)
@click.option("--out", type=click.Path(writable=True), default=None, help="Also write a sensitivity_mean CSV row.")
@_forward_errors
def sensitivity(family_path, samples, seed, workers, out):
    """Sampled sensitivity histogram of the family's function."""
    family = _load_family(family_path)
    cfg = SamplerConfig(n_samples=samples, seed=seed, workers=workers)
    profile = sensitivity_profile(TribesAddressing(family).handle(), cfg)
    click.echo(f"mean sensitivity = {format_real(profile.mean)} "
               f"+/- {format_real(profile.stderr)} ({samples} samples)")
    for s, count in enumerate(profile.histogram):
        if count:
            click.echo(f"  sensitivity {s}: {count}")
    if out is not None:
        row = ResultRow(
            experiment_id="sensitivity",
            d=family.d,
            t=family.t,
            m=family.m,
            seed=seed,
            family_ref=family_path,
            quantity="sensitivity_mean",
            k=None,
            mode="mc",
            value=profile.mean,
            stderr=profile.stderr,
            n_samples=samples,
        )
        _emit_rows([row], out)


if __name__ == "__main__":
    main()
