import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecop.delaymodel import (
    QueueSpec,
    UnstableQueueError,
    build_table,
    lookup,
    mm1_delay,
    packets_per_second,
    path_delay,
)

TOL = 1e-12


def test_mm1_delay_basic():
    assert mm1_delay(0.0, 100.0) == pytest.approx(0.01, abs=TOL)
    assert mm1_delay(50.0, 100.0) == pytest.approx(0.02, abs=TOL)
    with pytest.raises(UnstableQueueError):
        mm1_delay(100.0, 100.0)
    with pytest.raises(ValueError):
        mm1_delay(-1.0, 100.0)


def test_packets_per_second():
    # 1000 kbit/s of 1500-byte packets
    assert packets_per_second(1000e3, 1500.0) == pytest.approx(83.33333333333333, abs=1e-9)
    # service rates of the three media
    assert packets_per_second(27e6, 1500.0) == pytest.approx(2250.0, abs=TOL)
    assert packets_per_second(150e6, 1500.0) == pytest.approx(12500.0, abs=TOL)
    assert packets_per_second(3.75e9, 1500.0) == pytest.approx(312500.0, abs=TOL)


def test_build_table_k2_dsrc_frozen():
    table = build_table(QueueSpec("l0", 2250.0, 0.95), bins=2)
    assert table.arrival_bounds == pytest.approx((1068.75, 2137.5), abs=TOL)
    assert table.delays == pytest.approx(
        (0.0008465608465608466, 0.008888888888888889), abs=TOL
    )


def test_build_table_rejects_small_bins():
    with pytest.raises(ValueError, match="bins"):
        build_table(QueueSpec("l0", 2250.0, 0.95), bins=1)


def test_queue_spec_validation():
    with pytest.raises(ValueError):
        QueueSpec("l0", 0.0, 0.5)
    with pytest.raises(ValueError):
        QueueSpec("l0", 100.0, 1.0)


def test_lookup_rounds_up():
    table = build_table(QueueSpec("l0", 2250.0, 0.95), bins=2)
    # anything in (0, 1068.75] maps to the first bin's upper-bound delay
    assert lookup(table, 1.0) == table.delays[0]
    assert lookup(table, 1068.75) == table.delays[0]
    # strictly above the first bound rounds up to the second bin
    assert lookup(table, 1068.7500001) == table.delays[1]
    assert lookup(table, 2137.5) == table.delays[1]


def test_lookup_zero_still_charges_first_bin():
    table = build_table(QueueSpec("l0", 2250.0, 0.95), bins=4)
    assert lookup(table, 0.0) == table.delays[0]


def test_lookup_cap_and_dust():
    table = build_table(QueueSpec("l0", 2250.0, 0.95), bins=2)
    top = table.arrival_bounds[-1]
    assert lookup(table, top * (1.0 + 1e-12)) == table.delays[-1]
    with pytest.raises(UnstableQueueError):
        lookup(table, top * 1.01)
    with pytest.raises(ValueError):
        lookup(table, -1.0)


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(min_value=10.0, max_value=1e6),
    rho=st.floats(min_value=0.05, max_value=0.99),
    bins=st.integers(min_value=2, max_value=128),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_table_is_conservative(mu, rho, bins, frac):
    """Round-up lookups never under-estimate the true M/M/1 delay."""
    table = build_table(QueueSpec("q", mu, rho), bins)
    lam = frac * table.arrival_bounds[-1]
    assert lookup(table, lam) >= mm1_delay(lam, mu) - 1e-15


@settings(max_examples=100, deadline=None)
@given(
    mu=st.floats(min_value=10.0, max_value=1e6),
    rho=st.floats(min_value=0.05, max_value=0.99),
    bins=st.integers(min_value=2, max_value=64),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_refinement_tightens_lookup(mu, rho, bins, frac):
    """Doubling the bin count never increases any lookup answer."""
    coarse = build_table(QueueSpec("q", mu, rho), bins)
    fine = build_table(QueueSpec("q", mu, rho), bins * 2)
    lam = frac * coarse.arrival_bounds[-1]
    assert lookup(fine, lam) <= lookup(coarse, lam) + 1e-15


@settings(max_examples=100, deadline=None)
@given(
    mu=st.floats(min_value=10.0, max_value=1e6),
    bins=st.integers(min_value=2, max_value=64),
    f1=st.floats(min_value=0.0, max_value=1.0),
    f2=st.floats(min_value=0.0, max_value=1.0),
)
def test_lookup_monotone_in_arrival(mu, bins, f1, f2):
    table = build_table(QueueSpec("q", mu, 0.95), bins)
    lo, hi = sorted([f1, f2])
    top = table.arrival_bounds[-1]
    assert lookup(table, lo * top) <= lookup(table, hi * top)


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(min_value=10.0, max_value=1e6),
    rho=st.floats(min_value=0.05, max_value=0.99),
    bins=st.integers(min_value=2, max_value=128),
    kept=st.integers(min_value=1, max_value=128),
)
def test_secants_give_each_bins_delay(mu, rho, bins, kept):
    """The model's queue encoding (formulation C7_load, C7_queue) rests on
    two properties of a table: bin k's upper bound is k times the first
    bin's, so one integer bin index n covers an arrival rate by n * b_1; and
    at every bin index the largest secant of consecutive bins, over the kept
    bins 1..K, is that bin's delay."""
    table = build_table(QueueSpec("q", mu, rho), bins)
    bounds, delays = table.arrival_bounds, table.delays
    for k, b in enumerate(bounds):
        assert b == pytest.approx((k + 1) * bounds[0], rel=1e-12, abs=0.0)
    top = min(kept, bins)
    for n in range(1, top + 1):
        envelope = max(
            [delays[0]]
            + [
                delays[k - 1] + (delays[k] - delays[k - 1]) * (n - k)
                for k in range(1, top)
            ]
        )
        assert envelope == pytest.approx(delays[n - 1], rel=1e-12, abs=0.0)


def test_build_tables_default(default_scenario, default_linkset, default_tables):
    assert set(default_tables) == {l.id for l in default_linkset.links}
    for l in default_linkset.links:
        t = default_tables[l.id]
        assert t.mu == pytest.approx(l.capacity / (8.0 * 1500.0), rel=1e-12)
        assert len(t.arrival_bounds) == default_scenario.settings.bins
        assert t.arrival_bounds[-1] == pytest.approx(0.95 * t.mu, rel=1e-12)


def test_path_delay_composition(default_scenario, default_linkset, default_tables):
    links = [default_linkset.links[0]]
    lam = 83.33333333333333
    expected = (
        links[0].prop_delay
        + links[0].tx_delay_per_packet
        + lookup(default_tables[links[0].id], lam)
    )
    got = path_delay(links, default_tables, {links[0].id: lam})
    assert got == pytest.approx(expected, abs=TOL)
    # empty path = local processing = zero delay
    assert path_delay([], default_tables, {}) == 0.0
    # unmentioned link defaults to zero arrivals (first-bin delay still charged)
    base = path_delay(links, default_tables, {})
    assert base == pytest.approx(
        links[0].prop_delay
        + links[0].tx_delay_per_packet
        + default_tables[links[0].id].delays[0],
        abs=TOL,
    )
