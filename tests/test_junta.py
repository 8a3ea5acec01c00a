from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from juntagap import (
    ClaimFailedError,
    EnumerationCapError,
    InputWord,
    JuntaSpec,
    TribesAddressing,
    WorkBudgetError,
    all_influences,
    best_k_junta,
    dictator_handle,
    exact_hit_statistics,
    fiber_majority_junta,
    junta_distance_lower_bound,
    majority_handle,
    parity_handle,
    sample_family,
    substream,
    top_influence_junta,
    truth_table,
)
from juntagap.experiments import junta_rows
from juntagap.junta import JuntaResult, walsh_hadamard


# ---------------------------------------------------------------------------
# fiber majorities


def test_full_support_reproduces_function(fixture_function):
    h = fixture_function.handle()
    result = fiber_majority_junta(h, range(1, 9))
    assert result.distance == 0
    assert np.array_equal(result.spec.table, truth_table(h))


def test_empty_support_fixture(fixture_function):
    result = fiber_majority_junta(fixture_function.handle(), ())
    assert result.distance == Fraction(7, 16)
    assert result.spec.table.tolist() == [0]
    assert result.provenance == "fiber-given-subset"


def test_majority3_single_coordinate():
    result = fiber_majority_junta(majority_handle(3), (1,))
    assert result.distance == Fraction(1, 4)
    assert result.spec.table.tolist() == [0, 1]  # the dictator on coordinate 1


def test_fiber_ties_break_to_zero():
    # parity is split exactly in half on every proper fiber
    result = fiber_majority_junta(parity_handle(2), ())
    assert result.spec.table.tolist() == [0]
    assert result.distance == Fraction(1, 2)


def test_fiber_majority_beats_random_tables(fixture_function):
    # no junta on the same support, sampled or otherwise, may do better
    h = fixture_function.handle()
    table = truth_table(h)
    rng = substream(17, 0)
    for _ in range(20):
        k = int(rng.integers(0, 5))
        coords = tuple(sorted(rng.choice(8, size=k, replace=False) + 1))
        best = fiber_majority_junta(h, coords)
        for _ in range(100):
            candidate = JuntaSpec(
                coords=coords, table=rng.integers(0, 2, size=1 << k, dtype=np.uint8)
            )
            cand_table = truth_table(candidate.handle(8))
            dist = Fraction(int(np.count_nonzero(cand_table != table)), 256)
            assert dist >= best.distance


def test_junta_spec_validation():
    with pytest.raises(ValueError):
        JuntaSpec(coords=(2, 1), table=np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        JuntaSpec(coords=(1, 1), table=np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        JuntaSpec(coords=(1, 2), table=np.zeros(3, dtype=np.uint8))
    with pytest.raises(ValueError):
        JuntaSpec(coords=(1,), table=np.array([0, 2], dtype=np.uint8))


def test_junta_handle_eval_paths_agree():
    spec = JuntaSpec(coords=(2, 5), table=np.array([0, 1, 1, 0], dtype=np.uint8))
    h = spec.handle(6)
    values = np.arange(64, dtype=np.uint64)
    vectorized = h.eval_values(values)
    scalar = np.array([h(InputWord(6, v)) for v in range(64)])
    assert np.array_equal(vectorized, scalar)


def test_junta_handle_rejects_small_host():
    from juntagap import ArityError

    spec = JuntaSpec(coords=(2, 5), table=np.array([0, 1, 1, 0], dtype=np.uint8))
    with pytest.raises(ArityError):
        spec.handle(4)


# ---------------------------------------------------------------------------
# exhaustive search


def test_best_k_full_arity(fixture_function):
    assert best_k_junta(fixture_function.handle(), 8).distance == 0


def test_best_0_fixture(fixture_function):
    result = best_k_junta(fixture_function.handle(), 0)
    assert result.distance == Fraction(7, 16)
    assert result.spec.coords == ()
    assert result.provenance == "exhaustive"


def test_best_k_nonincreasing(fixture_function):
    h = fixture_function.handle()
    distances = [best_k_junta(h, k).distance for k in range(9)]
    assert all(a >= b for a, b in zip(distances, distances[1:]))


def test_best_k_lexicographic_tie_break():
    # every single coordinate of parity has the same (useless) distance
    result = best_k_junta(parity_handle(4), 1)
    assert result.distance == Fraction(1, 2)
    assert result.spec.coords == (1,)


def test_budget_error_mentions_heuristic(fixture_function):
    with pytest.raises(WorkBudgetError, match="top_influence_junta"):
        best_k_junta(fixture_function.handle(), 4, budget=1000)


def test_arity_cap():
    with pytest.raises(EnumerationCapError):
        best_k_junta(parity_handle(25), 1)


def test_arity_20_k4_within_default_budget():
    # 20 * 2**20 + C(20,4) * 4 * 2**4 = 21,281,600 transform additions; the
    # planted junta depends on all four coordinates, so it is the unique
    # distance-0 witness
    table = np.array([0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1], dtype=np.uint8)
    planted = JuntaSpec(coords=(3, 7, 11, 19), table=table)
    result = best_k_junta(planted.handle(20), 4)
    assert result.spec.coords == (3, 7, 11, 19)
    assert result.distance == 0
    assert np.array_equal(result.spec.table, table)


@st.composite
def small_tables(draw):
    """0/1 truth tables at arity <= 8: random ones, parity and majority."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "parity", "majority"]))
    if kind == "parity":
        return truth_table(parity_handle(n))
    if kind == "majority":
        return truth_table(majority_handle(n))
    bits = draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
    return np.array(bits, dtype=np.uint8)


def table_handle(table):
    n = int(table.size).bit_length() - 1
    return JuntaSpec(coords=range(1, n + 1), table=table).handle(n)


@settings(deadline=None)
@given(table=small_tables())
def test_exhaustive_matches_brute_force_oracle(table):
    # oracle: the first minimum of the per-support fiber majorities in
    # lexicographic order of the supports
    h = table_handle(table)
    for k in range(h.arity + 1):
        oracle = min(
            (fiber_majority_junta(h, coords) for coords in combinations(range(1, h.arity + 1), k)),
            key=lambda r: r.distance,
        )
        result = best_k_junta(h, k)
        assert result.spec.coords == oracle.spec.coords
        assert result.distance == oracle.distance
        assert np.array_equal(result.spec.table, oracle.spec.table)


@settings(deadline=None)
@given(table=small_tables())
def test_influences_from_walsh_spectrum(table):
    # g = (-1)**f has g_hat(S) = 2**n [S empty] - 2 F_hat(S), and
    # Inf_i = sum over S containing i of g_hat(S)**2 / 4**n
    n = int(table.size).bit_length() - 1
    g_hat = -2 * walsh_hadamard(table)
    g_hat[0] += 1 << n
    sets = np.arange(1 << n)
    spectral = [
        Fraction(int((g_hat[(sets >> (n - i)) & 1 == 1] ** 2).sum()), 4**n)
        for i in range(1, n + 1)
    ]
    assert spectral == all_influences(table_handle(table))


# ---------------------------------------------------------------------------
# influence heuristic


def test_top_influence_dictator():
    result = top_influence_junta(dictator_handle(5, 1), 1)
    assert result.spec.coords == (1,)
    assert result.distance == 0
    assert result.provenance == "top-influence"


def test_top_influence_parity():
    assert top_influence_junta(parity_handle(4), 3).distance == Fraction(1, 2)


def test_top_influence_never_beats_exhaustive(fixture_function):
    h = fixture_function.handle()
    for k in range(9):
        assert top_influence_junta(h, k).distance >= best_k_junta(h, k).distance


# ---------------------------------------------------------------------------
# the distance lower bound


def test_lower_bound_arithmetic():
    assert junta_distance_lower_bound(0.25, 0, 2) == 0.125
    assert junta_distance_lower_bound(0.4, 128, 10) == pytest.approx(0.1375)
    assert junta_distance_lower_bound(Fraction(1, 4), 0, 2) == Fraction(1, 8)


def test_lower_bound_clamps_to_zero():
    assert junta_distance_lower_bound(0.25, 1, 2) == 0.0
    assert junta_distance_lower_bound(Fraction(1, 4), 100, 2) == 0
    assert isinstance(junta_distance_lower_bound(Fraction(1, 4), 100, 2), Fraction)


def test_lower_bound_validation():
    with pytest.raises(ValueError):
        junta_distance_lower_bound(1.5, 0, 2)
    with pytest.raises(ValueError):
        junta_distance_lower_bound(0.5, -1, 2)


@given(
    p1=st.fractions(min_value=0, max_value=1),
    k=st.integers(0, 64),
    t=st.integers(0, 32),
)
def test_lower_bound_properties(p1, k, t):
    bound = junta_distance_lower_bound(p1, k, t)
    assert 0 <= bound <= Fraction(1, 2)
    assert bound >= junta_distance_lower_bound(p1, k + 1, t)


def test_dominance_on_random_families():
    rng = substream(19, 0)
    for _ in range(5):
        fam = sample_family(5, 2, 4, seed=int(rng.integers(0, 2**63)))
        h = TribesAddressing(fam).handle()
        p1 = exact_hit_statistics(fam).p1
        for k in range(9):
            result = best_k_junta(h, k)
            bound = junta_distance_lower_bound(p1, k, fam.t)
            assert result.distance >= bound
            assert 0 <= result.distance <= Fraction(1, 2)


def test_dominance_wider_families_small_k():
    rng = substream(23, 0)
    for _ in range(5):
        fam = sample_family(9, 3, 8, seed=int(rng.integers(0, 2**63)))
        h = TribesAddressing(fam).handle()
        p1 = exact_hit_statistics(fam).p1
        for k in range(3):
            bound = junta_distance_lower_bound(p1, k, fam.t)
            assert best_k_junta(h, k).distance >= bound


def test_junta_rows_checks_heuristic_dominance(fixture_family, monkeypatch):
    # the bound holds for every k-junta, so a heuristic below it fails too
    def below_bound(f, k):
        spec = JuntaSpec(coords=(), table=np.zeros(1, dtype=np.uint8))
        return JuntaResult(spec=spec, distance=Fraction(0), provenance="top-influence")

    monkeypatch.setattr("juntagap.experiments.top_influence_junta", below_bound)
    with pytest.raises(ClaimFailedError, match="top-influence distance 0"):
        junta_rows(fixture_family, 0, "top-influence", "t", "fixture", seed=0)


def test_exhaustive_matches_direct_minimum(fixture_function):
    # oracle: the true optimum over supports is the minimum of the
    # per-support fiber majorities
    from itertools import combinations

    h = fixture_function.handle()
    for k in (1, 2):
        direct = min(
            fiber_majority_junta(h, coords).distance
            for coords in combinations(range(1, 9), k)
        )
        assert best_k_junta(h, k).distance == direct
