from fractions import Fraction
from itertools import combinations, product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from juntagap import (
    ArityError,
    DepthCertificate,
    EnumerationCapError,
    FunctionHandle,
    InputWord,
    MonotoneAddressing,
    SetFamily,
    SplitLayout,
    TribesAddressing,
    addressing_majority_distance,
    all_influences,
    average_sensitivity,
    check_monotone,
    classify_restriction,
    constant_handle,
    coordinate_influence,
    depth_certificate,
    dictator_handle,
    exact_distance,
    exact_hit_statistics,
    hit_set,
    joint_hit_statistics,
    majority_handle,
    pair_conditional,
    parity_handle,
    sample_family,
    sensitivity_at,
    substream,
    talagrand,
    threshold_extension,
    total_influence,
    tribes_addressing_total_influence,
    truth_table,
)
from juntagap import analysis
from juntagap.functions import negate


def word(bits: str) -> InputWord:
    return InputWord.from_bits(bits)


# ---------------------------------------------------------------------------
# distances


def test_distance_trivial_cases(fixture_function):
    h = fixture_function.handle()
    assert exact_distance(h, h) == 0
    assert exact_distance(h, negate(h)) == 1


def test_distance_addressing_vs_threshold():
    assert exact_distance(
        MonotoneAddressing(3).handle(), threshold_extension(3)
    ) == Fraction(1, 4)


def test_distance_arity_mismatch():
    with pytest.raises(ArityError):
        exact_distance(parity_handle(3), parity_handle(4))


def test_distance_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        exact_distance(parity_handle(31), parity_handle(31))


# ---------------------------------------------------------------------------
# sensitivity and influence


def test_sensitivity_reference_cases():
    assert sensitivity_at(constant_handle(6, 1), word("101010")) == 0
    assert sensitivity_at(parity_handle(5), word("10110")) == 5


def test_sensitivity_fixture_point(fixture_function):
    assert sensitivity_at(fixture_function.handle(), word("11000000")) == 3


def test_influence_dictator():
    h = dictator_handle(4, 1)
    assert coordinate_influence(h, 1) == 1
    assert all(coordinate_influence(h, i) == 0 for i in (2, 3, 4))


def test_influence_fixture_leaves(fixture_function):
    h = fixture_function.handle()
    stats = exact_hit_statistics(fixture_function.family)
    # leaf 1 is pivotal only on the single address fiber with hit set {1}
    assert coordinate_influence(h, 5) == Fraction(1, 16)
    leaf_sum = sum((coordinate_influence(h, 4 + i) for i in range(1, 5)), Fraction(0))
    assert leaf_sum == Fraction(1, 4) == stats.p1


def test_total_influence_reference_values(fixture_function):
    assert total_influence(parity_handle(4)) == 4
    assert total_influence(majority_handle(3)) == Fraction(3, 2)
    # frozen from the exhaustive run; equals the structured and per-word paths
    assert total_influence(fixture_function.handle()) == Fraction(7, 4)


def test_total_influence_equals_average_sensitivity(fixture_function):
    functions = [
        fixture_function.handle(),
        majority_handle(3),
        parity_handle(4),
        dictator_handle(5, 2),
        MonotoneAddressing(3).handle(),
        talagrand(fixture_function.family),
    ]
    for h in functions:
        assert total_influence(h) == average_sensitivity(h), h.label


def test_leaf_influence_sum_matches_singleton_probability():
    rng = substream(21, 0)
    for _ in range(10):
        fam = sample_random_family(rng, d=5, t=2, m=4)
        h = TribesAddressing(fam).handle()
        influences = all_influences(h)
        leaf_sum = sum(influences[4:], Fraction(0))
        assert leaf_sum == exact_hit_statistics(fam).p1


def sample_random_family(rng, d, t, m) -> SetFamily:
    from juntagap import sample_family

    return sample_family(d, t, m, seed=int(rng.integers(0, 2**63)))


# ---------------------------------------------------------------------------
# monotonicity


def test_monotone_constant():
    assert check_monotone(constant_handle(5, 1)) is None


def test_monotone_negated_dictator_witness():
    violation = check_monotone(negate(dictator_handle(4, 1)))
    assert violation is not None
    assert violation.coordinate == 1
    assert str(violation.lower) == "0000"
    assert str(violation.upper) == "1000"


def test_monotone_fixture(fixture_function):
    assert check_monotone(fixture_function.handle()) is None


def test_monotone_random_families():
    rng = substream(31, 0)
    for _ in range(10):
        fam = sample_random_family(rng, d=7, t=2, m=5)
        assert check_monotone(TribesAddressing(fam).handle()) is None


def test_monotone_checks_a_subclass_eval(fixture_family):
    class Sub(TribesAddressing):
        def eval(self, w):
            # break monotonicity at the top of the cube, in eval only
            if w.value == (1 << self.arity) - 1:
                return 0
            return super().eval(w)

    assert TribesAddressing(fixture_family).handle().eval_values is not None
    handle = Sub(fixture_family).handle()
    assert handle.eval_values is None
    violation = check_monotone(handle)
    assert violation is not None
    assert violation.coordinate == 1
    assert str(violation.lower) == "01111111"
    assert str(violation.upper) == "11111111"


# ---------------------------------------------------------------------------
# depth certificate


def test_depth_certificate_fixture(fixture_function):
    cert = depth_certificate(fixture_function)
    assert cert.passed
    assert cert.depth_bound == 5
    assert cert.exhaustive


def test_depth_certificate_single_clause():
    fam = SetFamily(d=5, t=2, sets=((2, 3),))
    cert = depth_certificate(TribesAddressing(fam))
    assert cert.passed


def test_depth_certificate_probed_mode():
    fam = SetFamily(d=5, t=2, sets=tuple(combinations(range(1, 5), 2)) * 3)
    cert = depth_certificate(TribesAddressing(fam), exhaustive_leaf_cap=4)
    assert cert.passed
    assert not cert.exhaustive


def test_depth_certificate_catches_corruption(fixture_family):
    class Broken(TribesAddressing):
        def eval(self, w):
            # make one single-hit restriction depend on the wrong leaf
            if w.value >> 4 == 0b1100:
                return w.bit(6)
            return super().eval(w)

    cert = depth_certificate(Broken(fixture_family))
    assert not cert.passed
    assert str(cert.failing_x) == "1100"
    # the probe set catches wrong-leaf routing too: the addressed leaf's
    # unit vector disagrees even without an exhaustive sweep
    probed = depth_certificate(Broken(fixture_family), exhaustive_leaf_cap=0)
    assert not probed.passed
    assert not probed.exhaustive


def scalar_depth_oracle(
    cf, exhaustive_leaf_cap=12, probes_per_x=8, probe_seed=0, *, handle=None
):
    """The scalar depth-certificate loop: one ``eval_word`` per (x, y) probe.

    Hit sets come from ``hit_set`` and probes are ``InputWord`` objects, so
    this shares no kernel with :func:`depth_certificate`.
    """
    handle = cf.handle() if handle is None else handle
    family = cf.family
    width = family.x_width
    m = family.m
    layout = cf.layout
    exhaustive = m <= exhaustive_leaf_cap
    if exhaustive:
        leaf_words = [InputWord(m, v) for v in range(1 << m)]
    else:
        rng = substream(probe_seed, 0)
        extra = [
            InputWord(m, int.from_bytes(rng.bytes((m + 7) // 8), "big") % (1 << m))
            for _ in range(probes_per_x)
        ]
    all_ones = InputWord(m, (1 << m) - 1)
    all_zeros = InputWord(m, 0)

    for xv in range(1 << width):
        x = InputWord(width, xv)
        hits = hit_set(family, x)
        if len(hits) == 1:
            pivot = hits[0]
            claimed = lambda y: y.bit(pivot)
        elif len(hits) == 0:
            claimed = lambda y: 0
        else:
            claimed = lambda y: 1
        if exhaustive:
            probes = leaf_words
        else:
            probes = [all_zeros, all_ones]
            if len(hits) == 1:
                unit = all_zeros.with_bit(hits[0], 1)
                probes += [unit, InputWord(m, all_ones.value ^ unit.value)]
            probes += extra
        for y in probes:
            if handle(layout.join(x, y)) != claimed(y):
                return DepthCertificate(
                    passed=False,
                    depth_bound=family.d,
                    failing_x=x,
                    failing_y=y,
                    exhaustive=exhaustive,
                )
    return DepthCertificate(passed=True, depth_bound=family.d, exhaustive=exhaustive)


def flip_words(handle, flips):
    """``handle`` with its output flipped at the given words, in both evaluators."""
    flips = sorted(flips)

    def eval_word(w):
        return handle.eval_word(w) ^ (w.value in flips)

    eval_values = None
    if handle.eval_values is not None:

        def eval_values(values):
            return handle.eval_values(values) ^ np.isin(values, flips).astype(np.uint8)

    return FunctionHandle(
        arity=handle.arity,
        label=f"flipped({handle.label})",
        eval_word=eval_word,
        eval_values=eval_values,
    )


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(2, 6),
    m=st.integers(1, 6),
    data=st.data(),
    seed=st.integers(0, 2**32),
    exhaustive_leaf_cap=st.sampled_from([12, 0]),
    probes_per_x=st.integers(0, 8),
    probe_seed=st.integers(0, 3),
)
def test_depth_certificate_matches_scalar_oracle(
    d, m, data, seed, exhaustive_leaf_cap, probes_per_x, probe_seed
):
    t = data.draw(st.integers(0, d - 1), label="t")
    cf = TribesAddressing(sample_family(d, t, m, seed))
    # no flip is the clean handle; several flips in different rows pin the
    # witness order (x first, then y)
    flips = data.draw(
        st.lists(st.integers(0, (1 << cf.arity) - 1), max_size=3, unique=True),
        label="flipped words",
    )
    handle = flip_words(cf.handle(), flips)
    kwargs = dict(
        exhaustive_leaf_cap=exhaustive_leaf_cap,
        probes_per_x=probes_per_x,
        probe_seed=probe_seed,
        handle=handle,
    )
    got = depth_certificate(cf, **kwargs)
    want = scalar_depth_oracle(cf, **kwargs)
    assert got == want


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(2, 6),
    m=st.integers(1, 6),
    data=st.data(),
    seed=st.integers(0, 2**32),
    exhaustive_leaf_cap=st.sampled_from([12, 0]),
    batch=st.sampled_from([1, 8, 64]),
)
def test_small_batches_match_scalar_oracles(
    d, m, data, seed, exhaustive_leaf_cap, batch
):
    # batches smaller than the table: rows and words span several evaluator
    # calls, and the witness must still be the first failing (x, y)
    t = data.draw(st.integers(0, d - 1), label="t")
    cf = TribesAddressing(sample_family(d, t, m, seed))
    flips = data.draw(
        st.lists(st.integers(0, (1 << cf.arity) - 1), max_size=3, unique=True),
        label="flipped words",
    )
    handle = flip_words(cf.handle(), flips)
    scalar_only = FunctionHandle(
        arity=handle.arity, label="scalar", eval_word=handle.eval_word
    )
    assert np.array_equal(truth_table(handle, batch), truth_table(scalar_only))
    want_violation = check_monotone(scalar_only)
    want_cert = scalar_depth_oracle(
        cf, exhaustive_leaf_cap=exhaustive_leaf_cap, handle=handle
    )
    with patch.object(analysis, "_BATCH", batch):
        got_violation = check_monotone(handle)
        got_cert = depth_certificate(
            cf, exhaustive_leaf_cap=exhaustive_leaf_cap, handle=handle
        )
    assert got_violation == want_violation
    assert got_cert == want_cert


def test_depth_certificate_wide_words_match_scalar_oracle():
    # arity 73: words no longer fit in 64 bits, so rows are probed one at a time
    cf = TribesAddressing(sample_family(4, 1, 70, seed=5))
    clean = cf.handle()
    assert clean.eval_values is None
    assert depth_certificate(cf) == scalar_depth_oracle(cf)
    assert depth_certificate(cf).passed
    broken = flip_words(clean, [(0b101 << 70) | ((1 << 70) - 1)])
    got = depth_certificate(cf, handle=broken)
    assert got == scalar_depth_oracle(cf, handle=broken)
    assert not got.passed
    assert str(got.failing_x) == "101"


def test_depth_certificate_rejects_wrong_arity(fixture_function):
    with pytest.raises(ArityError):
        depth_certificate(fixture_function, handle=constant_handle(7, 0))


def test_classify_restriction_cases(fixture_family):
    f = TribesAddressing(fixture_family)
    h = f.handle()
    layout = f.layout
    assert classify_restriction(h, layout, word("0000")) == ("constant", 0)
    assert classify_restriction(h, layout, word("1111")) == ("constant", 1)
    assert classify_restriction(h, layout, word("1100")) == ("dictator", 1)
    assert classify_restriction(h, layout, word("0011")) == ("dictator", 2)
    # parity restriction is neither constant nor a single-leaf copy
    assert classify_restriction(parity_handle(8), SplitLayout(5, 4), word("1010")) == (
        "other",
        None,
    )


def test_wrapped_or_function_has_constant_restrictions(fixture_family):
    # the OR-of-clauses function, padded with an ignored leaf block, must
    # classify as constant on every address fiber
    G = talagrand(fixture_family)
    layout = SplitLayout(5, 4)

    def eval_word(w):
        return G(InputWord(4, w.value >> 4))

    from juntagap import FunctionHandle

    wrapped = FunctionHandle(arity=8, label="padded-or", eval_word=eval_word)
    for xv in range(16):
        kind, _ = classify_restriction(wrapped, layout, InputWord(4, xv))
        assert kind == "constant"


# ---------------------------------------------------------------------------
# hit statistics


def test_fixture_statistics(fixture_family):
    stats = exact_hit_statistics(fixture_family)
    assert stats.mean_hits == 1
    assert stats.second_factorial == Fraction(5, 4)
    assert (stats.p0, stats.p1, stats.p2plus) == (
        Fraction(7, 16),
        Fraction(4, 16),
        Fraction(5, 16),
    )
    assert stats.moment_gap == Fraction(-1, 4)


def test_statistics_invariants_random_families():
    rng = substream(41, 0)
    for _ in range(100):
        d = int(rng.integers(3, 10))
        t = int(rng.integers(1, d))
        m = int(rng.integers(1, 9))
        fam = sample_random_family(rng, d, t, m)
        stats = exact_hit_statistics(fam)  # closed forms cross-checked inside
        assert stats.p0 + stats.p1 + stats.p2plus == 1
        assert stats.moment_gap == stats.mean_hits - stats.second_factorial
        assert stats.p1 >= stats.moment_gap


def test_pair_conditional_cases():
    assert pair_conditional((1, 2), (1, 2)) == 1
    assert pair_conditional((1, 2), (3, 4)) == Fraction(1, 4)
    assert pair_conditional((1, 2), (1, 3)) == Fraction(1, 2)


def test_pair_conditional_dominates_unconditional():
    rng = substream(51, 0)
    from juntagap import sample_subset

    for _ in range(100):
        t = int(rng.integers(1, 6))
        universe = int(rng.integers(t, 12))
        a = sample_subset(rng, universe, t)
        b = sample_subset(rng, universe, t)
        value = pair_conditional(a, b)
        assert value >= Fraction(1, 2**t)
        assert (value == Fraction(1, 2**t)) == (not set(a) & set(b))


def test_pair_conditional_matches_fiber_counting(fixture_family):
    # oracle: count over the 2**4 address words
    sets = fixture_family.sets
    for a, b in product(range(4), repeat=2):
        if a == b:
            continue
        hits_a = hits_b = 0
        for xv in range(16):
            hs = hit_set(fixture_family, InputWord(4, xv))
            if a + 1 in hs:
                hits_a += 1
                if b + 1 in hs:
                    hits_b += 1
        assert pair_conditional(sets[a], sets[b]) == Fraction(hits_b, hits_a)


# ---------------------------------------------------------------------------
# joint (over-family) statistics


def brute_joint_average(d, t, m):
    """Average exact statistics over every possible family, by enumeration."""
    subsets = list(combinations(range(1, d), t))
    p1_total = Fraction(0)
    mean_total = Fraction(0)
    second_total = Fraction(0)
    n_families = 0
    for sets in product(subsets, repeat=m):
        fam = SetFamily(d=d, t=t, sets=sets)
        stats = exact_hit_statistics(fam)
        p1_total += stats.p1
        mean_total += stats.mean_hits
        second_total += stats.second_factorial
        n_families += 1
    return (
        p1_total / n_families,
        mean_total / n_families,
        second_total / n_families,
    )


@pytest.mark.parametrize("d,t,m", [(4, 2, 2), (5, 2, 2), (4, 1, 3)])
def test_joint_statistics_match_brute_force(d, t, m):
    p1, mean, second = brute_joint_average(d, t, m)
    joint = joint_hit_statistics(d, t, m)
    assert joint.p1 == p1
    assert joint.mean_hits == mean
    assert joint.second_factorial == second


def test_joint_mean_is_ratio():
    joint = joint_hit_statistics(17, 4, 16)
    assert joint.mean_hits == 1
    assert joint_hit_statistics(9, 3, 4).mean_hits == Fraction(4, 8)


# ---------------------------------------------------------------------------
# structured exact computations


def test_structured_influence_matches_generic():
    rng = substream(61, 0)
    for _ in range(8):
        d = int(rng.integers(3, 7))
        t = int(rng.integers(1, d))
        m = int(rng.integers(1, 7))
        fam = sample_random_family(rng, d, t, m)
        structured = tribes_addressing_total_influence(fam)
        generic = total_influence(TribesAddressing(fam).handle())
        assert structured == generic, (d, t, m)


def test_addressing_distance_structured_vs_generic():
    for d in (3, 5):
        generic = exact_distance(MonotoneAddressing(d).handle(), threshold_extension(d))
        assert addressing_majority_distance(d) == generic


def test_addressing_distance_closed_form():
    from math import comb

    for d in (3, 5, 7):
        expected = Fraction(comb(d - 1, (d - 1) // 2), 2**d)
        assert addressing_majority_distance(d) == expected


def test_truth_table_scalar_vs_vectorized(fixture_function):
    h = fixture_function.handle()
    from juntagap import FunctionHandle

    scalar_only = FunctionHandle(arity=h.arity, label="scalar", eval_word=h.eval_word)
    assert np.array_equal(truth_table(h), truth_table(scalar_only))
