"""Exact structural and statistical analysis by full enumeration.

Probabilities computed here are exact rationals: integer counts over a
power of two, never floating accumulations, so identity checks can
compare with ``==``.  All enumeration respects the caps declared in
:mod:`juntagap.bitcube` and :mod:`juntagap.functions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bitcube import ENUMERATION_CAP, InputWord, SplitLayout, flip_coordinate, substream
from .errors import ArityError, EnumerationCapError
from .functions import (
    X_ENUMERATION_CAP,
    FunctionHandle,
    MonotoneAddressing,
    SetFamily,
    TribesAddressing,
    family_hit_counts,
    family_hit_tables,
)

_CHUNK = 1 << 20
#: Words per batch-evaluator call in the monotonicity and depth checks: small
#: enough that the evaluator's temporaries stay in cache and are reused from
#: the allocator's free lists instead of being mapped and faulted in anew.
_BATCH = 1 << 12


def _check_enumerable(arity: int, what: str):
    if arity > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{what} needs full enumeration of 2**{arity} words; "
            f"the enumerable-mode cap is {ENUMERATION_CAP}"
        )


def _value_chunks(arity: int, size: int = _CHUNK):
    total = 1 << arity
    for start in range(0, total, size):
        stop = min(start + size, total)
        yield np.arange(start, stop, dtype=np.uint64)


def _eval_chunk(f: FunctionHandle, values: np.ndarray) -> np.ndarray:
    if f.eval_values is not None:
        out = np.asarray(f.eval_values(values), dtype=np.uint8)
    else:
        out = np.fromiter(
            (f.eval_word(InputWord(f.arity, int(v))) for v in values),
            dtype=np.uint8,
            count=len(values),
        )
    return out


def truth_table(f: FunctionHandle, batch: int = _CHUNK) -> np.ndarray:
    """Full truth table of ``f`` as a uint8 array indexed by word encoding.

    The batch evaluator gets ``batch`` words per call.
    """
    _check_enumerable(f.arity, f"truth table of {f.label}")
    return np.concatenate([_eval_chunk(f, c) for c in _value_chunks(f.arity, batch)])


# ---------------------------------------------------------------------------
# distances, sensitivity, influence


def exact_distance(f: FunctionHandle, g: FunctionHandle) -> Fraction:
    """Exact disagreement fraction of two functions of equal arity."""
    if f.arity != g.arity:
        raise ArityError(
            f"arity mismatch: {f.label} has {f.arity}, {g.label} has {g.arity}"
        )
    _check_enumerable(f.arity, "exact distance")
    disagreements = 0
    for values in _value_chunks(f.arity):
        disagreements += int(
            np.count_nonzero(_eval_chunk(f, values) != _eval_chunk(g, values))
        )
    return Fraction(disagreements, 1 << f.arity)


def sensitivity_at(f: FunctionHandle, w: InputWord) -> int:
    """Number of coordinates whose flip at ``w`` changes ``f``."""
    base = f(w)
    return sum(
        1 for i in range(1, w.width + 1) if f(flip_coordinate(w, i)) != base
    )


def _pair_diff_count(table: np.ndarray, arity: int, i: int) -> int:
    # words paired across coordinate i differ exactly in bit (arity - i)
    block = 1 << (arity - i)
    view = table.reshape(-1, 2, block)
    return int(np.count_nonzero(view[:, 0, :] != view[:, 1, :]))


def coordinate_influence(f: FunctionHandle, i: int) -> Fraction:
    """Probability over uniform words that flipping coordinate ``i`` changes f."""
    if not 1 <= i <= f.arity:
        raise ArityError(f"coordinate {i} out of range 1..{f.arity}")
    table = truth_table(f)
    return Fraction(_pair_diff_count(table, f.arity, i), 1 << (f.arity - 1))


def all_influences(f: FunctionHandle) -> list[Fraction]:
    """Influences of all coordinates, from one truth-table build."""
    table = truth_table(f)
    half = 1 << (f.arity - 1)
    return [
        Fraction(_pair_diff_count(table, f.arity, i), half)
        for i in range(1, f.arity + 1)
    ]


def total_influence(f: FunctionHandle) -> Fraction:
    """Sum of all coordinate influences (equals the average sensitivity)."""
    return sum(all_influences(f), Fraction(0))


def average_sensitivity(f: FunctionHandle) -> Fraction:
    """Mean of ``sensitivity_at`` over all words, via per-word scalar probes.

    Deliberately routed through scalar evaluation so it is an independent
    cross-check of :func:`total_influence`; costs O(n * 2**n) evaluations.
    """
    _check_enumerable(f.arity, "average sensitivity")
    total = 0
    for value in range(1 << f.arity):
        total += sensitivity_at(f, InputWord(f.arity, value))
    return Fraction(total, 1 << f.arity)


# ---------------------------------------------------------------------------
# monotonicity


@dataclass(frozen=True)
class EdgeViolation:
    """A hypercube edge witnessing non-monotonicity: f(lower)=1, f(upper)=0."""

    lower: InputWord
    upper: InputWord
    coordinate: int


def check_monotone(f: FunctionHandle) -> EdgeViolation | None:
    """Check every edge of the cube; return the first violation, if any.

    Scans coordinates in ascending order and, within a coordinate, words in
    ascending encoding, so the witness is deterministic.
    """
    table = truth_table(f, _BATCH)
    n = f.arity
    for i in range(1, n + 1):
        block = 1 << (n - i)
        view = table.reshape(-1, 2, block)
        viol = (view[:, 0, :] == 1) & (view[:, 1, :] == 0)
        if viol.any():
            q, s = np.argwhere(viol)[0]
            lower = int(q) * (block << 1) + int(s)
            return EdgeViolation(
                lower=InputWord(n, lower),
                upper=InputWord(n, lower + block),
                coordinate=i,
            )
    return None


# ---------------------------------------------------------------------------
# restriction structure / decision-tree depth certificate


def classify_restriction(
    f: FunctionHandle, layout: SplitLayout, x: InputWord
) -> tuple[str, int | None]:
    """Classify the leaf-part restriction of ``f`` at a fixed address ``x``.

    Returns ``("constant", bit)``, ``("dictator", i)`` with ``i`` the
    1-based leaf index, or ``("other", None)``.  Enumerates all ``2**m``
    leaf words, so it is an oracle for small ``m`` only.
    """
    if f.arity != layout.width:
        raise ArityError(
            f"layout width {layout.width} does not match arity {f.arity}"
        )
    m = layout.m
    if m > 20:
        raise EnumerationCapError(
            f"restriction classification enumerates 2**{m} leaf words; cap is 20"
        )
    base = x.value << m
    values = base + np.arange(1 << m, dtype=np.uint64)
    restriction = _eval_chunk(f, values)
    first = int(restriction[0])
    if np.all(restriction == first):
        return ("constant", first)
    leaf_values = np.arange(1 << m, dtype=np.uint64)
    for i in range(1, m + 1):
        pattern = ((leaf_values >> np.uint64(m - i)) & np.uint64(1)).astype(np.uint8)
        if np.array_equal(restriction, pattern):
            return ("dictator", i)
    return ("other", None)


@dataclass(frozen=True)
class DepthCertificate:
    """Outcome of the restriction check behind the depth-``d`` claim."""

    passed: bool
    depth_bound: int
    failing_x: InputWord | None = None
    failing_y: InputWord | None = None
    exhaustive: bool = True


def depth_certificate(
    cf: TribesAddressing,
    exhaustive_leaf_cap: int = 12,
    probes_per_x: int = 8,
    probe_seed: int = 0,
    *,
    handle: FunctionHandle | None = None,
) -> DepthCertificate:
    """Certify that fixing the address bits leaves at most one live leaf bit.

    ``cf`` supplies the family, and so the claim; ``handle`` (default
    ``cf.handle()``) is the function under test, so a corrupted or
    re-implemented evaluator is checked rather than the construction.  For
    every address word the restriction read from ``handle`` must equal the
    one the hit count dictates: constant 0 with no hits, constant 1 with
    two or more, and a copy of the single addressed leaf otherwise.

    Leaf words are swept exhaustively when ``m <= exhaustive_leaf_cap``;
    beyond that each address row gets a fixed probe set, checked in this
    order: all-zeros, all-ones, the addressed leaf's unit vector and its
    complement (single-hit rows only), then ``probes_per_x`` words drawn
    from ``probe_seed``.  Rows are streamed in chunks of whole rows, at
    most ``2**12`` words each when a row fits, through the handle's batch
    evaluator (``truth_table``'s chunk path); wider than 64 bits, one row
    at a time through ``eval_word``.  Checking stops at the first chunk
    with a mismatch, and the witness is the first failing ``(x, y)`` with
    ``x`` ascending, then ``y`` in probe order (ascending when
    exhaustive).  A pass certifies decision-tree depth at most ``d``.
    """
    family = cf.family
    handle = cf.handle() if handle is None else handle
    if handle.arity != cf.arity:
        raise ArityError(
            f"{handle.label} has arity {handle.arity}; the family needs {cf.arity}"
        )
    counts, singles = family_hit_tables(family)
    m = family.m
    exhaustive = m <= exhaustive_leaf_cap
    # object arrays keep Python ints where a word does not fit in 64 bits
    dtype = np.dtype(np.uint64) if cf.arity <= 64 else np.dtype(object)
    if exhaustive:
        leaves = np.arange(1 << m).astype(dtype)[None, :]
    else:
        rng = substream(probe_seed, 0)
        extra = [
            int.from_bytes(rng.bytes((m + 7) // 8), "big") % (1 << m)
            for _ in range(probes_per_x)
        ]
    cols = 1 << m if exhaustive else 4 + probes_per_x
    step = 1 if dtype == object else max(1, _BATCH // cols)

    for x0 in range(0, len(counts), step):
        cnt = counts[x0 : x0 + step, None]
        single = singles[x0 : x0 + step, None]
        if exhaustive:
            ys, probed = leaves, True
        else:
            ys, probed = _probe_leaves(cnt, single, m, extra, dtype)
        xs = np.arange(x0, x0 + len(cnt)).astype(dtype)[:, None]
        words = (xs << m) | ys
        got = _eval_chunk(handle, words.ravel()).reshape(words.shape)
        leaf = (ys >> (m - single).astype(dtype)) & 1
        claimed = np.where(cnt >= 2, 1, np.where(cnt == 0, 0, leaf))
        bad = (got != claimed) & probed
        if bad.any():
            r, c = np.argwhere(bad)[0]
            return DepthCertificate(
                passed=False,
                depth_bound=family.d,
                failing_x=InputWord(family.x_width, x0 + int(r)),
                failing_y=InputWord(m, int(np.broadcast_to(ys, bad.shape)[r, c])),
                exhaustive=exhaustive,
            )
    return DepthCertificate(passed=True, depth_bound=family.d, exhaustive=exhaustive)


def _probe_leaves(cnt, single, m, extra, dtype):
    """Probe leaf words for a block of address rows, in checking order.

    Columns are all-zeros, all-ones, the addressed leaf's unit vector, its
    complement, then ``extra``; the returned mask marks the unit-vector
    columns as probed on single-hit rows only.
    """
    full = (1 << m) - 1
    ys = np.empty((len(cnt), 4 + len(extra)), dtype=dtype)
    ys[:, :2] = [0, full]
    ys[:, 4:] = extra
    ys[:, 2:3] = np.ones(single.shape, dtype=dtype) << (m - single).astype(dtype)
    ys[:, 3:4] = ys[:, 2:3] ^ np.array(full, dtype=dtype)
    probed = np.ones(ys.shape, dtype=bool)
    probed[:, 2:4] = cnt == 1
    return ys, probed


# ---------------------------------------------------------------------------
# hit-count statistics


@dataclass(frozen=True)
class HitStatistics:
    """Exact hit-count statistics of a family over all address words."""

    d: int
    t: int
    m: int
    mean_hits: Fraction
    second_factorial: Fraction
    p0: Fraction
    p1: Fraction
    p2plus: Fraction

    @property
    def moment_gap(self) -> Fraction:
        """E[H * (2 - H)] = mean - second factorial moment (may be negative)."""
        return self.mean_hits - self.second_factorial

    def as_dict(self) -> dict[str, Fraction]:
        return {
            "p0": self.p0,
            "p1": self.p1,
            "p2plus": self.p2plus,
            "mean_hits": self.mean_hits,
            "second_factorial": self.second_factorial,
            "moment_gap": self.moment_gap,
        }


def exact_hit_statistics(family: SetFamily) -> HitStatistics:
    """Exact statistics of the hit count by full address enumeration.

    Two closed forms are recomputed and compared exactly against the
    enumeration: the mean ``m * 2**-t`` and the ordered-pair sum
    ``sum_{i != j} 2**-|S_i u S_j|`` for the second factorial moment.  A
    mismatch means the enumeration kernel and the definition disagree and
    is raised as an internal error.
    """
    width = family.x_width
    if width > X_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"exact hit statistics enumerate 2**{width} address words; cap is "
            f"{X_ENUMERATION_CAP}"
        )
    total = 1 << width
    sum_hits = 0
    sum_pairs = 0
    count0 = 0
    count1 = 0
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        values = np.arange(start, stop, dtype=np.uint64)
        counts = family_hit_counts(family, values)
        sum_hits += int(counts.sum())
        sum_pairs += int((counts.astype(np.int64) * (counts - 1)).sum())
        count0 += int(np.count_nonzero(counts == 0))
        count1 += int(np.count_nonzero(counts == 1))

    mean = Fraction(sum_hits, total)
    second = Fraction(sum_pairs, total)

    closed_mean = Fraction(family.m, 1 << family.t)
    if mean != closed_mean:
        raise RuntimeError(
            f"internal consistency failure: enumerated mean {mean} != "
            f"closed form {closed_mean}"
        )
    masks = family.masks
    closed_second = Fraction(0)
    for a in range(family.m):
        for b in range(a + 1, family.m):
            union = (masks[a] | masks[b]).bit_count()
            closed_second += Fraction(2, 1 << union)
    if second != closed_second:
        raise RuntimeError(
            f"internal consistency failure: enumerated second factorial "
            f"moment {second} != closed form {closed_second}"
        )

    return HitStatistics(
        d=family.d,
        t=family.t,
        m=family.m,
        mean_hits=mean,
        second_factorial=second,
        p0=Fraction(count0, total),
        p1=Fraction(count1, total),
        p2plus=Fraction(total - count0 - count1, total),
    )


def pair_conditional(set_i, set_j) -> Fraction:
    """Pr over uniform x that clause j hits given that clause i hits.

    For fixed sets this is exactly ``2**-|set_j \\ set_i|``: conditioning
    forces the shared coordinates to 1 and leaves the rest fair coin flips.
    """
    extra = len(set(set_j) - set(set_i))
    return Fraction(1, 1 << extra)


@dataclass(frozen=True)
class JointHitStatistics:
    """Exact hit-count statistics jointly over random family and address."""

    d: int
    t: int
    m: int
    p1: Fraction
    mean_hits: Fraction
    second_factorial: Fraction

    @property
    def moment_gap(self) -> Fraction:
        return self.mean_hits - self.second_factorial


def joint_hit_statistics(d: int, t: int, m: int) -> JointHitStatistics:
    """Closed-form statistics averaged over families drawn i.i.d. uniform.

    Conditioned on an address of weight ``w``, each clause hits
    independently with probability ``C(w,t)/C(d-1,t)``, so the hit count is
    Binomial(m, p(w)); averaging the exact binomial moments over the
    binomial weight distribution gives the joint values as exact rationals.
    """
    D = d - 1
    if not 0 <= t <= D:
        raise ValueError(f"t must lie in 0..{D}, got {t}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    denom = math.comb(D, t)
    p1 = Fraction(0)
    mean = Fraction(0)
    second = Fraction(0)
    for w in range(D + 1):
        pw = Fraction(math.comb(w, t), denom)
        weight_prob = Fraction(math.comb(D, w), 1 << D)
        p1 += weight_prob * m * pw * (1 - pw) ** (m - 1)
        mean += weight_prob * m * pw
        second += weight_prob * m * (m - 1) * pw * pw
    return JointHitStatistics(
        d=d, t=t, m=m, p1=p1, mean_hits=mean, second_factorial=second
    )


# ---------------------------------------------------------------------------
# structured exact computations for the wide constructions


def tribes_addressing_total_influence(family: SetFamily) -> Fraction:
    """Exact total influence of the leaf-addressed clause function.

    Enumerates only the ``2**(d-1)`` address words.  The leaf side
    contributes exactly Pr(one hit): leaf ``i`` is pivotal on the fiber
    where clause ``i`` alone hits.  An address flip changes the output
    with probability 0, 1/2 or 1 over uniform leaves, depending on the
    restriction classes on both sides of the flip, so each address
    influence is a count over 2**d.
    """
    counts, singles = family_hit_tables(family)
    width = family.x_width
    total = 1 << width
    classes = np.minimum(counts, 2)

    leaf_side = Fraction(int(np.count_nonzero(counts == 1)), total)

    values = np.arange(total, dtype=np.int64)
    address_side = Fraction(0)
    for j in range(1, width + 1):
        flipped = values ^ (1 << (width - j))
        c0, c1 = classes, classes[flipped]
        s0, s1 = singles, singles[flipped]
        # disagreement probability over uniform leaves, in half-units
        jump = ((c0 == 0) & (c1 == 2)) | ((c0 == 2) & (c1 == 0))
        one_single = (c0 == 1) ^ (c1 == 1)
        moved_single = (c0 == 1) & (c1 == 1) & (s0 != s1)
        half_units = 2 * int(np.count_nonzero(jump)) + int(
            np.count_nonzero(one_single | moved_single)
        )
        address_side += Fraction(half_units, 2 * total)
    return address_side + leaf_side


def addressing_majority_distance(d: int) -> Fraction:
    """Exact distance between the addressing function and its threshold part.

    They differ exactly on the tie fiber (address weight equal to the
    threshold) and there on half the leaf assignments, so the distance is
    counted from the address enumeration alone; no leaf enumeration is
    needed, which keeps d with huge leaf blocks exact.
    """
    af = MonotoneAddressing(d)
    width = d - 1
    ties = 0
    for start in range(0, 1 << width, _CHUNK):
        stop = min(start + _CHUNK, 1 << width)
        values = np.arange(start, stop, dtype=np.uint64)
        if hasattr(np, "bitwise_count"):
            weights = np.bitwise_count(values)
        else:
            weights = np.unpackbits(values.view(np.uint8)).reshape(len(values), -1).sum(axis=1)
        ties += int(np.count_nonzero(weights == af.threshold))
    return Fraction(ties, 1 << d)
