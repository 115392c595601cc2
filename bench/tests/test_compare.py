"""Verdict rules of :mod:`bench.compare`."""

from bench.compare import verdict

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_clear_gain_is_improved():
    change = [v * 0.8 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "improved"
    assert verdict(change, PARENT, "higher", 0.1) == "improved"


def test_small_difference_within_bound_is_unchanged():
    change = [v * 1.02 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "unchanged"


def test_worse_beyond_bound_is_regressed():
    change = [v * 1.3 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "regressed"
    assert verdict(PARENT, [v * 0.7 for v in PARENT], "higher",
                   0.1) == "regressed"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 7.5, 12.5, 10.0, 9.5, 10.5]
    change = [v * 1.01 for v in noisy]
    assert verdict(noisy, change, "lower", 0.1) == "unresolved"
    # ... unless every change run reads better than every parent run.
    faster = [v * 0.5 for v in noisy]
    assert max(faster) < min(noisy)
    assert verdict(noisy, faster, "lower", 0.1) == "improved"


def test_too_few_pairs_are_not_a_gain():
    change = [v * 0.8 for v in PARENT]
    assert verdict(PARENT[:9], change[:9], "lower", 0.1) == "unchanged"


def test_mixed_wins_are_not_a_gain():
    change = [v * (0.9 if i % 2 else 1.05) for i, v in enumerate(PARENT)]
    assert verdict(PARENT, change, "lower", 0.1) != "improved"


def test_counts_compare_exactly():
    base = [100] * 10
    assert verdict(base, base, "lower", 0.01, exact=True) == "unchanged"
    assert verdict(base, [99] + [100] * 9, "lower", 0.01,
                   exact=True) == "improved"
    # The bound of BENCHMARK.json decides a regression, as for times ...
    assert verdict(base, [100] * 9 + [101], "lower", 0.01,
                   exact=True) == "unchanged"
    assert verdict(base, [102] * 10, "lower", 0.01,
                   exact=True) == "regressed"
    # ... but no spread makes a count unresolved.
    noisy = [80, 120, 90, 110, 100, 75, 125, 100, 95, 105]
    assert verdict(noisy, [v + 1 for v in noisy], "lower", 0.01,
                   exact=True) == "unchanged"
