"""Function constructions: clause families and the functions they define.

A :class:`SetFamily` is a sequence of ``m`` size-``t`` subsets of the
address coordinates ``{1, ..., d-1}``.  For an address word ``x`` the
*hit set* is the set of clause indices whose coordinates are all 1 in
``x``.  Three functions are built on top of it:

* :class:`TribesAddressing` -- on ``(x, y)`` with ``m`` leaf bits:
  1 when two or more clauses hit, 0 when none hits, and the leaf bit
  ``y_i`` when exactly clause ``i`` hits.  Monotone, and computed by a
  decision tree of depth ``d`` (query all address bits, then at most one
  leaf bit).
* :func:`talagrand` -- the plain OR of the clauses, 1 iff any clause hits.
* :class:`MonotoneAddressing` -- a threshold on the address weight whose
  tie fiber is routed to one of ``2**(d-1)`` leaf bits selected by the
  address value.

Everything is evaluated behind :class:`FunctionHandle`, a uniform
(arity, eval) interface also used for juntas and reference functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .bitcube import InputWord, SplitLayout, sample_subset, substream
from .errors import (
    ArityError,
    EnumerationCapError,
    FamilyFormatError,
    InfeasibleSubsetError,
)

#: Cap on the address dimension of exhaustive x-side kernels (2**26 points).
X_ENUMERATION_CAP = 26

#: Leaf-count guard for the monotone addressing function (2**20 leaves).
ADDRESSING_CAP = 20

FAMILY_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# function handles


@dataclass(frozen=True)
class FunctionHandle:
    """An evaluable Boolean function of declared arity.

    ``eval_word`` must be total and deterministic on words of width
    ``arity``.  ``eval_values``, when present, maps a numpy array of
    integer word encodings to a uint8 array of outputs and must agree
    with ``eval_word``; it exists so enumeration kernels can run
    vectorized.  ``source`` optionally points back at the construction
    the handle wraps.
    """

    arity: int
    label: str
    eval_word: Callable[[InputWord], int]
    eval_values: Callable[[np.ndarray], np.ndarray] | None = None
    source: object = None

    def __call__(self, w: InputWord) -> int:
        if w.width != self.arity:
            raise ArityError(
                f"{self.label}: expected width {self.arity}, got {w.width}"
            )
        return self.eval_word(w)


def _require_arity(arity: int, w: InputWord, label: str):
    if w.width != arity:
        raise ArityError(f"{label}: expected width {arity}, got {w.width}")


# ---------------------------------------------------------------------------
# clause families


@dataclass(frozen=True)
class SetFamily:
    """An ordered sequence of size-``t`` subsets of ``{1, ..., d-1}``.

    Duplicates among the sets are permitted: families are sampled with
    replacement across positions, and deduplication would change the
    distribution.  ``seed`` records sampling provenance when known.
    """

    d: int
    t: int
    sets: tuple[tuple[int, ...], ...]
    seed: int | None = None

    def __post_init__(self):
        if self.d < 2:
            raise FamilyFormatError(f"d must be >= 2, got {self.d}")
        if not 0 <= self.t <= self.d - 1:
            raise FamilyFormatError(
                f"t must lie in 0..{self.d - 1}, got {self.t}"
            )
        if len(self.sets) < 1:
            raise FamilyFormatError("family must contain at least one set")
        object.__setattr__(
            self, "sets", tuple(tuple(sorted(s)) for s in self.sets)
        )
        for index, s in enumerate(self.sets, start=1):
            if len(s) != self.t:
                raise FamilyFormatError(
                    f"set {index} has size {len(s)}, expected {self.t}"
                )
            if len(set(s)) != len(s):
                raise FamilyFormatError(f"set {index} contains duplicates")
            for j in s:
                if not 1 <= j <= self.d - 1:
                    raise FamilyFormatError(
                        f"set {index} contains element {j} "
                        f"outside 1..{self.d - 1}"
                    )

    @property
    def m(self) -> int:
        return len(self.sets)

    @property
    def x_width(self) -> int:
        return self.d - 1

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """MSB-first bitmask of each set over the address word encoding."""
        width = self.x_width
        return tuple(
            sum(1 << (width - j) for j in s) for s in self.sets
        )

    def layout(self) -> SplitLayout:
        return SplitLayout(self.d, self.m)


def default_schedule(d: int) -> tuple[int, int]:
    """Default (t, m) for a given d: t = ceil(sqrt(d)), m = 2**t.

    This pins the ratio m * 2**-t at 1; callers can override both values.
    """
    if d < 2:
        raise FamilyFormatError(f"d must be >= 2, got {d}")
    t = math.isqrt(d - 1) + 1  # smallest t with t*t >= d
    t = min(t, d - 1)
    return t, 2**t


def sample_family(
    d: int, t: int, m: int, seed: int | np.random.Generator
) -> SetFamily:
    """Draw ``m`` independent uniform size-``t`` subsets of ``{1, .., d-1}``."""
    if d < 2:
        raise FamilyFormatError(f"d must be >= 2, got {d}")
    if m < 1:
        raise FamilyFormatError(f"m must be >= 1, got {m}")
    if not 0 <= t <= d - 1:
        raise InfeasibleSubsetError(
            f"cannot draw size-{t} subsets of a universe of {d - 1}"
        )
    if isinstance(seed, np.random.Generator):
        rng, provenance = seed, None
    else:
        rng, provenance = substream(seed, 0), seed
    sets = tuple(sample_subset(rng, d - 1, t) for _ in range(m))
    return SetFamily(d=d, t=t, sets=sets, seed=provenance)


def hit_set(family: SetFamily, x: InputWord) -> tuple[int, ...]:
    """Indices (1-based, ascending) of clauses satisfied by the address ``x``.

    Clause ``i`` is satisfied when every coordinate in its set is 1 in ``x``.
    """
    _require_arity(family.x_width, x, "hit_set")
    v = x.value
    return tuple(
        i for i, mask in enumerate(family.masks, start=1) if v & mask == mask
    )


def _popcount(values: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(values)
    v = np.ascontiguousarray(values)
    return (
        np.unpackbits(v.view(np.uint8))
        .reshape(v.shape[0], -1)
        .sum(axis=1)
        .astype(np.int64)
    )


def family_hit_counts(family: SetFamily, values: np.ndarray) -> np.ndarray:
    """Number of satisfied clauses for each address encoding in ``values``."""
    counts = np.zeros(values.shape, dtype=np.int32)
    for mask in family.masks:
        counts += (values & values.dtype.type(mask)) == values.dtype.type(mask)
    return counts


def family_hit_tables(family: SetFamily) -> tuple[np.ndarray, np.ndarray]:
    """Hit counts and singleton clause indices for every address word.

    Returns ``(counts, singles)`` indexed by address encoding: ``counts``
    is the number of satisfied clauses and ``singles`` the 1-based clause
    index where ``counts == 1`` (0 elsewhere).  Requires
    ``d - 1 <= X_ENUMERATION_CAP``.
    """
    width = family.x_width
    if width > X_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"address dimension {width} exceeds the exact-kernel cap of "
            f"{X_ENUMERATION_CAP}"
        )
    values = np.arange(1 << width, dtype=np.uint32 if width < 32 else np.uint64)
    counts = family_hit_counts(family, values)
    singles = np.zeros(values.shape, dtype=np.int32)
    singleton = counts == 1
    for i, mask in enumerate(family.masks, start=1):
        sat = (values & values.dtype.type(mask)) == values.dtype.type(mask)
        singles[singleton & sat] = i
    return counts, singles


# ---------------------------------------------------------------------------
# the constructions


class TribesAddressing:
    """Leaf-addressed clause function on ``(d-1) + m`` coordinates.

    With hit set ``H(x)``: output 1 when ``|H| >= 2``, 0 when ``|H| = 0``,
    and the leaf bit ``y_i`` when ``H = {i}``.  Monotone by construction;
    after the address bits are fixed the output depends on at most one
    leaf bit, so a depth-``d`` decision tree computes it.
    """

    def __init__(self, family: SetFamily):
        self.family = family
        self.layout = family.layout()

    @property
    def arity(self) -> int:
        return self.layout.width

    def eval(self, w: InputWord) -> int:
        _require_arity(self.arity, w, "tribes_addressing")
        m = self.family.m
        xv = w.value >> m
        count = 0
        single = 0
        for i, mask in enumerate(self.family.masks, start=1):
            if xv & mask == mask:
                count += 1
                if count > 1:
                    return 1
                single = i
        if count == 0:
            return 0
        return (w.value >> (m - single)) & 1

    def eval_parts(self, x: InputWord, y: InputWord) -> int:
        return self.eval(self.layout.join(x, y))

    @cached_property
    def _hit_tables(self) -> tuple[np.ndarray, np.ndarray]:
        return family_hit_tables(self.family)

    def eval_values(self, values: np.ndarray) -> np.ndarray:
        counts, singles = self._hit_tables
        m = self.family.m
        xs = (values >> np.uint64(m)).astype(np.int64)
        cnt = counts[xs]
        single = singles[xs]
        shift = (m - single).astype(values.dtype)
        leaf = ((values >> shift) & values.dtype.type(1)).astype(np.uint8)
        out = np.where(cnt >= 2, 1, np.where(cnt == 0, 0, leaf))
        return out.astype(np.uint8)

    def handle(self) -> FunctionHandle:
        fam = self.family
        label = f"tribes_addressing(d={fam.d},t={fam.t},m={fam.m})"
        # the table-backed batch evaluator matches only the base ``eval``; a
        # subclass that overrides ``eval`` is evaluated through its own method
        own_eval = type(self).eval is TribesAddressing.eval
        eval_values = self.eval_values if own_eval and self.arity <= 62 else None
        return FunctionHandle(
            arity=self.arity,
            label=label,
            eval_word=self.eval,
            eval_values=eval_values,
            source=self,
        )


def talagrand(family: SetFamily) -> FunctionHandle:
    """OR-of-clauses handle on the address coordinates: 1 iff any clause hits."""
    masks = family.masks
    width = family.x_width

    def eval_word(w: InputWord) -> int:
        _require_arity(width, w, "talagrand")
        v = w.value
        return int(any(v & mask == mask for mask in masks))

    def eval_values(values: np.ndarray) -> np.ndarray:
        hit = np.zeros(values.shape, dtype=bool)
        for mask in masks:
            hit |= (values & values.dtype.type(mask)) == values.dtype.type(mask)
        return hit.astype(np.uint8)

    return FunctionHandle(
        arity=width,
        label=f"talagrand(d={family.d},t={family.t},m={family.m})",
        eval_word=eval_word,
        eval_values=eval_values if width <= 62 else None,
        source=family,
    )


class MonotoneAddressing:
    """Weight threshold with the tie fiber routed through leaf bits.

    On ``(x_1 .. x_{d-1}, y_0 .. y_{2^{d-1}-1})``: output 1 when the
    address weight exceeds ``floor((d-1)/2)``, 0 when it falls short, and
    the leaf bit whose 0-based index is the MSB-first value of ``x`` on a
    tie.  Leaf count grows as ``2**(d-1)``, so ``d - 1 <= 20`` is enforced.
    """

    def __init__(self, d: int):
        if d < 2:
            raise ValueError(f"d must be >= 2, got {d}")
        if d - 1 > ADDRESSING_CAP:
            raise ValueError(
                f"addressing function needs 2**(d-1) leaves; d-1 = {d - 1} "
                f"exceeds the cap of {ADDRESSING_CAP}"
            )
        self.d = d
        self.threshold = (d - 1) // 2
        self.n_leaves = 1 << (d - 1)

    @property
    def arity(self) -> int:
        return (self.d - 1) + self.n_leaves

    def eval(self, w: InputWord) -> int:
        _require_arity(self.arity, w, "monotone_addressing")
        xv = w.value >> self.n_leaves
        weight = xv.bit_count()
        if weight > self.threshold:
            return 1
        if weight < self.threshold:
            return 0
        # tie: leaf index 0 is the leftmost leaf coordinate
        return (w.value >> (self.n_leaves - 1 - xv)) & 1

    def eval_values(self, values: np.ndarray) -> np.ndarray:
        leaves = self.n_leaves
        xs = values >> np.uint64(leaves)
        weight = _popcount(xs)
        shift = (leaves - 1 - xs.astype(np.int64)).astype(values.dtype)
        leaf = ((values >> shift) & values.dtype.type(1)).astype(np.uint8)
        out = np.where(
            weight > self.threshold, 1, np.where(weight < self.threshold, 0, leaf)
        )
        return out.astype(np.uint8)

    def handle(self) -> FunctionHandle:
        eval_values = self.eval_values if self.arity <= 62 else None
        return FunctionHandle(
            arity=self.arity,
            label=f"monotone_addressing(d={self.d})",
            eval_word=self.eval,
            eval_values=eval_values,
            source=self,
        )


def threshold_extension(d: int) -> FunctionHandle:
    """Majority-style threshold on the address bits, ignoring all leaf bits.

    Same layout and arity as :class:`MonotoneAddressing` for distance
    comparisons: output 1 iff the address weight exceeds ``floor((d-1)/2)``.
    """
    af = MonotoneAddressing(d)
    leaves = af.n_leaves
    threshold = af.threshold

    def eval_word(w: InputWord) -> int:
        _require_arity(af.arity, w, "threshold_extension")
        return int((w.value >> leaves).bit_count() > threshold)

    def eval_values(values: np.ndarray) -> np.ndarray:
        weight = _popcount(values >> np.uint64(leaves))
        return (weight > threshold).astype(np.uint8)

    return FunctionHandle(
        arity=af.arity,
        label=f"threshold_extension(d={d})",
        eval_word=eval_word,
        eval_values=eval_values if af.arity <= 62 else None,
    )


# ---------------------------------------------------------------------------
# reference functions


def constant_handle(arity: int, bit: int) -> FunctionHandle:
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")

    def eval_values(values: np.ndarray) -> np.ndarray:
        return np.full(values.shape, bit, dtype=np.uint8)

    return FunctionHandle(
        arity=arity,
        label=f"constant_{bit}(n={arity})",
        eval_word=lambda w: bit,
        eval_values=eval_values,
    )


def dictator_handle(arity: int, i: int) -> FunctionHandle:
    """The function that copies coordinate ``i``."""
    if not 1 <= i <= arity:
        raise ValueError(f"coordinate {i} out of range 1..{arity}")
    shift = arity - i

    def eval_values(values: np.ndarray) -> np.ndarray:
        return ((values >> values.dtype.type(shift)) & values.dtype.type(1)).astype(
            np.uint8
        )

    return FunctionHandle(
        arity=arity,
        label=f"dictator(n={arity},i={i})",
        eval_word=lambda w: w.bit(i),
        eval_values=eval_values,
    )


def parity_handle(arity: int) -> FunctionHandle:
    def eval_values(values: np.ndarray) -> np.ndarray:
        return (_popcount(values) & 1).astype(np.uint8)

    return FunctionHandle(
        arity=arity,
        label=f"parity(n={arity})",
        eval_word=lambda w: w.weight() & 1,
        eval_values=eval_values,
    )


def majority_handle(arity: int) -> FunctionHandle:
    """Strict majority: 1 iff more than half the coordinates are 1."""

    def eval_values(values: np.ndarray) -> np.ndarray:
        return (2 * _popcount(values) > arity).astype(np.uint8)

    return FunctionHandle(
        arity=arity,
        label=f"majority(n={arity})",
        eval_word=lambda w: int(2 * w.weight() > arity),
        eval_values=eval_values,
    )


def negate(f: FunctionHandle) -> FunctionHandle:
    eval_values = None
    if f.eval_values is not None:
        inner = f.eval_values

        def eval_values(values: np.ndarray) -> np.ndarray:
            return (1 - inner(values)).astype(np.uint8)

    return FunctionHandle(
        arity=f.arity,
        label=f"not({f.label})",
        eval_word=lambda w: 1 - f.eval_word(w),
        eval_values=eval_values,
    )


# ---------------------------------------------------------------------------
# serialization


def family_to_text(family: SetFamily) -> str:
    """Canonical JSON document for a family; round-trips exactly."""
    doc = {
        "format_version": FAMILY_FORMAT_VERSION,
        "d": family.d,
        "t": family.t,
        "m": family.m,
        "sets": [list(s) for s in family.sets],
    }
    if family.seed is not None:
        doc["seed"] = family.seed
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def family_from_text(doc: str) -> SetFamily:
    """Parse and validate a family document produced by :func:`family_to_text`."""
    try:
        data = json.loads(doc)
    except json.JSONDecodeError as exc:
        raise FamilyFormatError(f"malformed family document: {exc}") from exc
    if not isinstance(data, dict):
        raise FamilyFormatError("family document must be a JSON object")
    version = data.get("format_version")
    if version != FAMILY_FORMAT_VERSION:
        raise FamilyFormatError(
            f"unsupported format_version {version!r}; expected "
            f"{FAMILY_FORMAT_VERSION}"
        )
    for key in ("d", "t", "m", "sets"):
        if key not in data:
            raise FamilyFormatError(f"family document missing field {key!r}")
    d, t, m, sets = data["d"], data["t"], data["m"], data["sets"]
    if not (isinstance(d, int) and isinstance(t, int) and isinstance(m, int)):
        raise FamilyFormatError("d, t, m must be integers")
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise FamilyFormatError("sets must be a list of lists")
    if len(sets) != m:
        raise FamilyFormatError(f"m is {m} but document has {len(sets)} sets")
    for index, s in enumerate(sets, start=1):
        if not all(isinstance(j, int) for j in s):
            raise FamilyFormatError(f"set {index} contains non-integer elements")
    seed = data.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise FamilyFormatError("seed must be an integer when present")
    return SetFamily(d=d, t=t, sets=tuple(tuple(s) for s in sets), seed=seed)
