"""k-junta approximation: fiber majorities, exhaustive search, heuristics.

The optimal approximator among functions depending on a fixed coordinate
set J is the per-fiber majority vote of the target, so every search here
reduces to counting ones per fiber of a truth table.  The exhaustive
search reads those counts off the table's Walsh spectrum: the one-counts
of the fibers of J are the size-``2**|J|`` inverse transform of the
coefficients on the subsets of J (O'Donnell, *Analysis of Boolean
Functions*, Ch. 1-3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import comb
from typing import Sequence

import numpy as np

from .bitcube import InputWord
from .errors import (
    ArityError,
    EnumerationCapError,
    InfeasibleSubsetError,
    WorkBudgetError,
)
from .functions import FunctionHandle
from . import analysis

#: Largest host arity for junta searches (full-table based).
JUNTA_ARITY_CAP = 24

#: Largest supported coordinate-set size (table has 2**k entries).
JUNTA_SIZE_CAP = 20

#: Default work budget for the exhaustive search, in transform additions:
#: ``n * 2**n`` for the table's spectrum plus ``C(n, k) * k * 2**k`` for the
#: per-set inverse transforms.
DEFAULT_BUDGET = 10**9


@dataclass(frozen=True, eq=False)
class JuntaSpec:
    """A coordinate set J plus a truth table over its 2**|J| assignments.

    ``table[a]`` is the output on the fiber whose J-restricted assignment
    has MSB-first value ``a`` (the smallest listed coordinate is the most
    significant bit).
    """

    coords: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self):
        coords = tuple(int(c) for c in self.coords)
        if list(coords) != sorted(set(coords)):
            raise ValueError(f"coords must be sorted and distinct, got {coords}")
        if any(c < 1 for c in coords):
            raise ValueError(f"coords must be >= 1, got {coords}")
        table = np.asarray(self.table, dtype=np.uint8)
        if table.shape != (1 << len(coords),):
            raise ValueError(
                f"table must have 2**{len(coords)} entries, got {table.shape}"
            )
        if not np.all((table == 0) | (table == 1)):
            raise ValueError("table entries must be 0/1")
        table.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "table", table)

    @property
    def k(self) -> int:
        return len(self.coords)

    def handle(self, arity: int) -> FunctionHandle:
        """Evaluable handle of this junta on a host of the given arity."""
        if self.coords and self.coords[-1] > arity:
            raise ArityError(
                f"junta coordinate {self.coords[-1]} exceeds host arity {arity}"
            )
        coords, table, k = self.coords, self.table, self.k

        def eval_word(w: InputWord) -> int:
            a = 0
            for c in coords:
                a = (a << 1) | w.bit(c)
            return int(table[a])

        def eval_values(values: np.ndarray) -> np.ndarray:
            return table[_fiber_indices(values, arity, coords)]

        return FunctionHandle(
            arity=arity,
            label=f"junta(k={k},coords={list(coords)})",
            eval_word=eval_word,
            eval_values=eval_values,
            source=self,
        )


@dataclass(frozen=True)
class JuntaResult:
    """A junta with its exact distance to the target and how it was found."""

    spec: JuntaSpec
    distance: Fraction
    provenance: str  # "exhaustive" | "fiber-given-subset" | "top-influence"


def _fiber_indices(
    values: np.ndarray, arity: int, coords: Sequence[int]
) -> np.ndarray:
    k = len(coords)
    fib = np.zeros(values.shape, dtype=np.int64)
    for r, c in enumerate(coords):
        bit = (values >> np.uint64(arity - c)) & np.uint64(1)
        fib |= bit.astype(np.int64) << (k - 1 - r)
    return fib


def _check_caps(f: FunctionHandle, coords: Sequence[int]):
    if f.arity > JUNTA_ARITY_CAP:
        raise EnumerationCapError(
            f"junta operations need the full table of {f.label}; arity cap is "
            f"{JUNTA_ARITY_CAP}"
        )
    if len(coords) > JUNTA_SIZE_CAP:
        raise EnumerationCapError(
            f"junta tables hold 2**k entries; k cap is {JUNTA_SIZE_CAP}"
        )
    for c in coords:
        if not 1 <= c <= f.arity:
            raise ArityError(f"coordinate {c} out of range 1..{f.arity}")


def _fiber_majority(
    table: np.ndarray, arity: int, coords: tuple[int, ...]
) -> tuple[np.ndarray, int]:
    """Majority table over each J-fiber and the total minority count."""
    k = len(coords)
    values = np.arange(1 << arity, dtype=np.uint64)
    fib = _fiber_indices(values, arity, coords)
    ones = np.bincount(fib[table == 1], minlength=1 << k)
    fiber_size = 1 << (arity - k)
    majority = (2 * ones > fiber_size).astype(np.uint8)
    minority = int(np.minimum(ones, fiber_size - ones).sum())
    return majority, minority


def fiber_majority_junta(
    f: FunctionHandle, coords: Sequence[int]
) -> JuntaResult:
    """Optimal junta on exactly the coordinate set ``coords``.

    Each fiber takes the majority value of ``f`` over it (ties to 0), which
    minimizes the disagreement fraction among all functions depending only
    on ``coords``; the distance is therefore at most 1/2.
    """
    coords = tuple(sorted(int(c) for c in coords))
    if len(set(coords)) != len(coords):
        raise ValueError(f"coords must be distinct, got {coords}")
    _check_caps(f, coords)
    table = analysis.truth_table(f)
    majority, minority = _fiber_majority(table, f.arity, coords)
    return JuntaResult(
        spec=JuntaSpec(coords=coords, table=majority),
        distance=Fraction(minority, 1 << f.arity),
        provenance="fiber-given-subset",
    )


def _butterfly(block: np.ndarray) -> None:
    """In-place unnormalised Walsh-Hadamard transform of each row of ``block``.

    Rows must have a power-of-two length; the integer dtype keeps every
    coefficient exact.
    """
    rows, size = block.shape
    h = 1
    while h < size:
        v = block.reshape(rows, -1, 2, h)
        lo, hi = v[:, :, 0, :], v[:, :, 1, :]
        lo += hi
        hi *= -2
        hi += lo  # (lo + hi) - 2 hi = lo - hi
        h <<= 1


def walsh_hadamard(table: np.ndarray) -> np.ndarray:
    """Walsh spectrum ``F(S) = sum_x table[x] * (-1)**popcount(S & x)`` as int64.

    ``S`` indexes the spectrum the way word encodings index the table, so
    coordinate ``c`` of an arity-``n`` host is bit ``n - c`` of ``S``.
    """
    spectrum = np.array(table, dtype=np.int64).reshape(1, -1)
    _butterfly(spectrum)
    return spectrum[0]


def _subset_indices(coords: np.ndarray, arity: int) -> np.ndarray:
    """Spectrum indices of every subset of each row's coordinate set.

    ``coords`` has shape ``(sets, k)``; the result has shape
    ``(sets, 2**k)`` and column ``a`` holds the subset whose membership
    bits, MSB-first over the row's coordinates, spell ``a``.
    """
    weights = np.left_shift(1, arity - coords)
    idx = np.zeros((coords.shape[0], 1), dtype=np.int64)
    for r in reversed(range(coords.shape[1])):
        idx = np.concatenate([idx, idx + weights[:, r : r + 1]], axis=1)
    return idx


def best_k_junta(
    f: FunctionHandle, k: int, budget: int = DEFAULT_BUDGET
) -> JuntaResult:
    """Exhaustive minimum-distance k-junta.

    Scores every size-k coordinate set in lexicographic order and keeps the
    first set achieving the minimum, so ties break to the lexicographically
    smallest witness.  One Walsh-Hadamard transform of the truth table
    gives every set's fiber one-counts through a size-``2**k`` inverse
    transform of the coefficients on its subsets.  Work is gated by
    ``budget``, counted as ``n * 2**n + C(n, k) * k * 2**k`` transform
    additions, before any table is built.
    """
    if not 0 <= k <= f.arity:
        raise InfeasibleSubsetError(f"k must lie in 0..{f.arity}, got {k}")
    _check_caps(f, range(1, k + 1))
    n = f.arity
    work = n * (1 << n) + comb(n, k) * k * (1 << k)
    if work > budget:
        raise WorkBudgetError(
            f"exhaustive search over C({n},{k}) subsets needs {work} "
            f"transform additions, above the budget of {budget}; consider "
            f"top_influence_junta"
        )
    table = analysis.truth_table(f)
    spectrum = walsh_hadamard(table)
    fiber_size = 1 << (n - k)
    subsets = combinations(range(1, n + 1), k)
    best_coords = None
    best_minority = None
    # fiber_size sets per chunk keep each gathered block at <= 2**n entries
    while chunk := list(islice(subsets, fiber_size)):
        block = spectrum[_subset_indices(np.array(chunk, dtype=np.int64), n)]
        _butterfly(block)
        block >>= k  # the inverse transform's 2**-k; exact, counts are integers
        minority = np.minimum(block, fiber_size - block).sum(axis=1)
        i = int(np.argmin(minority))
        if best_minority is None or minority[i] < best_minority:
            best_minority = int(minority[i])
            best_coords = chunk[i]
    majority, minority = _fiber_majority(table, n, best_coords)
    if minority != best_minority:
        raise RuntimeError(
            f"internal consistency failure: spectral minority {best_minority} "
            f"!= direct fiber count {minority} on coordinates {best_coords}"
        )
    return JuntaResult(
        spec=JuntaSpec(coords=best_coords, table=majority),
        distance=Fraction(best_minority, 1 << n),
        provenance="exhaustive",
    )


def top_influence_junta(f: FunctionHandle, k: int) -> JuntaResult:
    """Fiber majority on the k most influential coordinates (ties to lower index)."""
    if not 0 <= k <= f.arity:
        raise InfeasibleSubsetError(f"k must lie in 0..{f.arity}, got {k}")
    _check_caps(f, range(1, k + 1))
    influences = analysis.all_influences(f)
    order = sorted(range(1, f.arity + 1), key=lambda c: (-influences[c - 1], c))
    coords = tuple(sorted(order[:k]))
    result = fiber_majority_junta(f, coords)
    return JuntaResult(
        spec=result.spec, distance=result.distance, provenance="top-influence"
    )


def junta_distance_lower_bound(p1, k: int, t: int):
    """Distance floor forced on every k-junta by the singleton probability.

    Whenever exactly one clause hits and the junta ignores the addressed
    leaf, the two functions disagree on half the leaf assignments; removing
    the at most ``k * 2**-t`` of singleton mass a junta can track yields
    ``max(0, (p1 - k * 2**-t) / 2)``.  Exact when ``p1`` is a Fraction.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if not 0 <= p1 <= 1:
        raise ValueError(f"p1 must lie in [0, 1], got {p1}")
    if isinstance(p1, float):
        return max(0.0, (p1 - k * 2.0**-t) / 2.0)
    bound = (Fraction(p1) - Fraction(k, 1 << t)) / 2
    return max(Fraction(0), bound)
