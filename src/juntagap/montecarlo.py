"""Seeded Monte Carlo estimators for regimes beyond exact enumeration.

Every estimator draws its randomness from worker substreams derived from
``(seed, worker_index)``: the trial index space is split contiguously
across workers and results depend on (seed, workers, n_samples) only.
Two estimators called with the same config consume identical sample
streams, so per-trial (pointwise) relations between their scores carry
over to the estimates exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitcube import InputWord, substream
from .errors import ArityError, InfeasibleSubsetError, SamplerConfigError
from .functions import FunctionHandle, SetFamily, TribesAddressing

#: Below this many samples the standard error is not meaningful.
MIN_SAMPLES = 100


@dataclass(frozen=True)
class SamplerConfig:
    """Sample count, seed, and logical worker count for one estimator run."""

    n_samples: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.n_samples < MIN_SAMPLES:
            raise SamplerConfigError(
                f"n_samples must be >= {MIN_SAMPLES}, got {self.n_samples}"
            )
        if self.workers < 1:
            raise SamplerConfigError(f"workers must be >= 1, got {self.workers}")
        if not 0 <= self.seed < 2**64:
            raise SamplerConfigError("seed must be a 64-bit unsigned value")


@dataclass(frozen=True)
class EstimateResult:
    """A Monte Carlo point estimate with its standard error and provenance."""

    estimate: float
    stderr: float
    n_samples: int
    seed: int
    workers: int


def _worker_blocks(cfg: SamplerConfig) -> list[tuple[int, int]]:
    """Contiguous (worker_index, block_size) split of the trial space."""
    base, extra = divmod(cfg.n_samples, cfg.workers)
    return [(w, base + (1 if w < extra else 0)) for w in range(cfg.workers)]


def _mean_result(scores: np.ndarray, cfg: SamplerConfig) -> EstimateResult:
    n = len(scores)
    mean = float(scores.mean())
    std = float(scores.std(ddof=1)) if n > 1 else 0.0
    return EstimateResult(
        estimate=mean,
        stderr=std / math.sqrt(n),
        n_samples=cfg.n_samples,
        seed=cfg.seed,
        workers=cfg.workers,
    )


def _indicator_result(hits: np.ndarray, cfg: SamplerConfig) -> EstimateResult:
    n = len(hits)
    phat = float(np.count_nonzero(hits)) / n
    return EstimateResult(
        estimate=phat,
        stderr=math.sqrt(phat * (1.0 - phat) / n),
        n_samples=cfg.n_samples,
        seed=cfg.seed,
        workers=cfg.workers,
    )


# ---------------------------------------------------------------------------
# joint sampling: fresh family and fresh address per trial


def joint_hit_counts(d: int, t: int, m: int, cfg: SamplerConfig) -> np.ndarray:
    """Hit counts of independent (family, address) trials.

    Each trial conceptually draws m i.i.d. uniform size-t clause sets and a
    uniform address word.  Conditioned on the address weight w, each clause
    hits independently with probability C(w,t)/C(d-1,t), so the trial's hit
    count is distributed Binomial(m, p(w)); the kernel samples the address,
    takes its weight, and draws the binomial directly.  This is an exact
    distributional identity, not an approximation (streams are only
    required to be deterministic per implementation, not bit-matched to a
    clause-by-clause simulation; tests cross-check against one).
    """
    D = d - 1
    if not 0 <= t <= D:
        raise InfeasibleSubsetError(
            f"cannot draw size-{t} subsets of a universe of {D}"
        )
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    denom = math.comb(D, t)
    p_by_weight = np.array(
        [math.comb(w, t) / denom for w in range(D + 1)], dtype=np.float64
    )
    blocks = []
    for w_index, size in _worker_blocks(cfg):
        rng = substream(cfg.seed, w_index)
        weights = rng.binomial(D, 0.5, size=size)
        blocks.append(rng.binomial(m, p_by_weight[weights]))
    return np.concatenate(blocks).astype(np.int64)


def estimate_singleton_probability(
    d: int, t: int, m: int, cfg: SamplerConfig
) -> EstimateResult:
    """Estimate Pr over fresh (family, address) that exactly one clause hits."""
    counts = joint_hit_counts(d, t, m, cfg)
    return _indicator_result(counts == 1, cfg)


def estimate_moment_gap(d: int, t: int, m: int, cfg: SamplerConfig) -> EstimateResult:
    """Estimate E[H(2-H)] over fresh (family, address) trials.

    The score is at most the singleton indicator pointwise (it is 1 when
    H = 1, nonpositive otherwise), so with a matching config the estimate
    never exceeds the singleton-probability estimate.
    """
    counts = joint_hit_counts(d, t, m, cfg)
    return _mean_result((counts * (2 - counts)).astype(np.float64), cfg)


# ---------------------------------------------------------------------------
# fixed-family sampling: condition on one clause family


def _sample_addresses(rng: np.random.Generator, width: int, size: int) -> np.ndarray:
    if width <= 62:
        return rng.integers(0, 1 << width, size=size, dtype=np.uint64)
    raise ValueError(f"packed address sampling supports width <= 62, got {width}")


def family_hit_count_samples(
    family: SetFamily, cfg: SamplerConfig
) -> np.ndarray:
    """Hit counts at uniform addresses for one fixed family."""
    D = family.x_width
    blocks = []
    for w_index, size in _worker_blocks(cfg):
        rng = substream(cfg.seed, w_index)
        if D <= 62:
            values = _sample_addresses(rng, D, size)
            counts = np.zeros(size, dtype=np.int64)
            for mask in family.masks:
                mk = np.uint64(mask)
                counts += (values & mk) == mk
        else:
            membership = np.zeros((family.m, D), dtype=np.float32)
            for i, s in enumerate(family.sets):
                for j in s:
                    membership[i, j - 1] = 1.0
            counts = np.zeros(size, dtype=np.int64)
            chunk = max(1, (1 << 22) // max(family.m, 1))
            done = 0
            while done < size:
                take = min(chunk, size - done)
                bits = rng.integers(0, 2, size=(take, D)).astype(np.float32)
                per_clause = bits @ membership.T
                counts[done : done + take] = (per_clause == family.t).sum(axis=1)
                done += take
        blocks.append(counts)
    return np.concatenate(blocks)


def estimate_family_statistics(
    family: SetFamily, cfg: SamplerConfig
) -> dict[str, EstimateResult]:
    """Sampled hit-count statistics conditioned on one family.

    Returns estimates keyed like the exact statistics: p0, p1, p2plus,
    mean_hits, second_factorial, moment_gap.  All six are scored from one
    sample stream.
    """
    counts = family_hit_count_samples(family, cfg)
    return {
        "p0": _indicator_result(counts == 0, cfg),
        "p1": _indicator_result(counts == 1, cfg),
        "p2plus": _indicator_result(counts >= 2, cfg),
        "mean_hits": _mean_result(counts.astype(np.float64), cfg),
        "second_factorial": _mean_result(
            (counts * (counts - 1)).astype(np.float64), cfg
        ),
        "moment_gap": _mean_result((counts * (2 - counts)).astype(np.float64), cfg),
    }


# ---------------------------------------------------------------------------
# distances and sensitivity profiles


def _sample_words(rng: np.random.Generator, width: int, size: int) -> list[InputWord]:
    words = []
    limbs = (width + 31) // 32
    for _ in range(size):
        value = 0
        for _ in range(limbs):
            value = (value << 32) | int(rng.integers(0, 1 << 32, dtype=np.uint64))
        words.append(InputWord(width, value & ((1 << width) - 1)))
    return words


def estimate_distance(
    f: FunctionHandle, g: FunctionHandle, cfg: SamplerConfig
) -> EstimateResult:
    """Estimate the disagreement fraction of two functions of equal arity."""
    if f.arity != g.arity:
        raise ArityError(
            f"arity mismatch: {f.label} has {f.arity}, {g.label} has {g.arity}"
        )
    n = f.arity
    vectorized = f.eval_values is not None and g.eval_values is not None and n <= 62
    blocks = []
    for w_index, size in _worker_blocks(cfg):
        rng = substream(cfg.seed, w_index)
        if vectorized:
            values = rng.integers(0, 1 << n, size=size, dtype=np.uint64)
            blocks.append(f.eval_values(values) != g.eval_values(values))
        else:
            words = _sample_words(rng, n, size)
            blocks.append(
                np.fromiter((f(w) != g(w) for w in words), dtype=bool, count=size)
            )
    return _indicator_result(np.concatenate(blocks), cfg)


@dataclass(frozen=True)
class SensitivityProfile:
    """Histogram of sampled sensitivities; the mean estimates total influence."""

    histogram: np.ndarray  # histogram[s] = number of sampled words with sensitivity s
    mean: float
    stderr: float
    n_samples: int
    seed: int
    workers: int


def _tribes_sensitivities(
    cf: TribesAddressing, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Sensitivities of sampled words, via the clause structure.

    Works at any width: only clause membership counts are touched.  A leaf
    flip is pivotal exactly when that leaf is addressed (one hit); an
    address flip is pivotal when the restriction class changes the output
    at the sampled leaves.
    """
    family = cf.family
    D = family.x_width
    m = family.m
    membership = np.zeros((m, D), dtype=np.int32)
    for i, s in enumerate(family.sets):
        for j in s:
            membership[i, j - 1] = 1
    out = np.empty(size, dtype=np.int64)
    for trial in range(size):
        x_bits = rng.integers(0, 2, size=D, dtype=np.int32)
        y_bits = rng.integers(0, 2, size=m, dtype=np.int32)
        missing = membership @ (1 - x_bits)
        sat = missing == 0
        cnt = int(sat.sum())
        if cnt >= 2:
            f0 = 1
        elif cnt == 0:
            f0 = 0
        else:
            f0 = int(y_bits[int(np.argmax(sat))])
        # flipping x_j adds M[:, j] to missing where x_j = 1, removes it where 0
        flipped_missing = missing[:, None] + membership * (2 * x_bits - 1)[None, :]
        sat_f = flipped_missing == 0
        cnt_f = sat_f.sum(axis=0)
        pivot_leaf = y_bits[sat_f.argmax(axis=0)]
        f_flip = np.where(cnt_f >= 2, 1, np.where(cnt_f == 0, 0, pivot_leaf))
        out[trial] = int(np.count_nonzero(f_flip != f0)) + (1 if cnt == 1 else 0)
    return out


def sensitivity_profile(f: FunctionHandle, cfg: SamplerConfig) -> SensitivityProfile:
    """Sample uniform words and record the sensitivity at each.

    Uses the clause-structured kernel when ``f`` wraps a
    :class:`TribesAddressing` (so wide leaf blocks stay cheap); otherwise
    probes all coordinate flips through scalar evaluation.
    """
    n = f.arity
    sens_blocks = []
    structured = isinstance(f.source, TribesAddressing)
    for w_index, size in _worker_blocks(cfg):
        rng = substream(cfg.seed, w_index)
        if structured:
            sens_blocks.append(_tribes_sensitivities(f.source, rng, size))
        else:
            words = _sample_words(rng, n, size)
            sens_blocks.append(
                np.fromiter(
                    (_sensitivity_scalar(f, w) for w in words),
                    dtype=np.int64,
                    count=size,
                )
            )
    sens = np.concatenate(sens_blocks)
    histogram = np.bincount(sens, minlength=n + 1)
    mean = float(sens.mean())
    std = float(sens.std(ddof=1)) if len(sens) > 1 else 0.0
    return SensitivityProfile(
        histogram=histogram,
        mean=mean,
        stderr=std / math.sqrt(len(sens)),
        n_samples=cfg.n_samples,
        seed=cfg.seed,
        workers=cfg.workers,
    )


def _sensitivity_scalar(f: FunctionHandle, w: InputWord) -> int:
    base = f(w)
    count = 0
    for i in range(1, w.width + 1):
        flipped = InputWord(w.width, w.value ^ (1 << (w.width - i)))
        if f(flipped) != base:
            count += 1
    return count
