"""The overload experiment: metastable acceptance, the completion
mirage, gray-failure isolation, and sweep bit-identity."""

import pytest

from repro.harness import figures
from repro.harness.cache import ResultCache
from repro.harness.overload import (
    DEFAULT_OVERLOAD_KIOPS,
    PROTECTIONS,
    overload_curves,
    overload_sweep,
    probe_gray,
    probe_overload,
)
from repro.harness.sweep import SweepRunner

#: The default acceptance grid: knee, 2x past it, 4x past it.  One
#: shared sweep for the whole module (each cell is an independent seeded
#: simulation; computing them once keeps the suite fast).
GRID = dict(systems=("rio",), loads_kiops=DEFAULT_OVERLOAD_KIOPS,
            duration=2e-3, tenants=4, initiators=2)


@pytest.fixture(scope="module")
def curves():
    return SweepRunner(jobs=1).run(overload_sweep(**GRID))


def _row(curves, protection, offered):
    rows = [r for r in curves.series(system="rio", protection=protection)
            if r["offered_kiops"] == offered]
    assert rows, (protection, offered)
    return rows[0]


def test_probe_reports_one_cell():
    row = probe_overload("rio", "optane", 200, "full", duration=5e-4)
    assert row["offered_kiops"] == 200
    assert row["goodput_kiops"] > 0
    assert row["persisted_kiops"] > 0
    assert row["p999_us"] >= row["p99_us"] >= row["p50_us"] > 0


def test_probe_rejects_unknown_layout_and_protection():
    with pytest.raises(ValueError):
        probe_overload("rio", "not-a-layout", 100, "full")
    with pytest.raises(ValueError):
        probe_overload("rio", "optane", 100, "not-a-profile")


def test_grid_covers_both_protections(curves):
    assert len(curves.rows) == len(PROTECTIONS) * len(DEFAULT_OVERLOAD_KIOPS)
    for protection in PROTECTIONS:
        offered = curves.column("offered_kiops", protection=protection)
        assert offered == sorted(DEFAULT_OVERLOAD_KIOPS)


def test_sub_knee_protection_is_free(curves):
    """Below the knee the protection stack must cost nothing: identical
    goodput, no sheds, no failures, same tail."""
    low = min(DEFAULT_OVERLOAD_KIOPS)
    off, full = _row(curves, "off", low), _row(curves, "full", low)
    assert full["goodput_kiops"] == off["goodput_kiops"]
    assert full["shed_rate"] == 0.0
    assert full["p999_us"] == off["p999_us"]


def test_protected_stack_holds_the_knee_at_2x_overload(curves):
    """The tentpole acceptance: at 2x the knee the protected stack
    sustains >= 80% of knee goodput (it actually holds ~100%: admission
    pins it at device capacity)."""
    knee = max(r["goodput_kiops"]
               for r in curves.series(system="rio", protection="full"))
    mid, top = sorted(DEFAULT_OVERLOAD_KIOPS)[1:]
    for offered in (mid, top):
        row = _row(curves, "full", offered)
        assert row["goodput_kiops"] >= 0.8 * knee, (offered, row)
        assert row["timeout_rate"] == 0.0, row
        assert row["dead_streams"] == 0, row


def test_unprotected_stack_shows_the_completion_mirage_then_collapses(curves):
    """Past the knee the unprotected driver's 100us timeout expires while
    originals queue in the device; the retransmissions are duplicate-acked
    by the in-order gate, so completions decouple from persistence (the
    mirage).  At 4x the retry ladder outruns the receive cores and real
    goodput collapses."""
    mid, top = sorted(DEFAULT_OVERLOAD_KIOPS)[1:]
    mirage = _row(curves, "off", mid)
    assert mirage["goodput_kiops"] > 1.2 * mirage["persisted_kiops"], mirage
    collapse = _row(curves, "off", top)
    assert collapse["timeout_rate"] > 0.3, collapse
    knee = max(r["goodput_kiops"]
               for r in curves.series(system="rio", protection="full"))
    assert collapse["persisted_kiops"] < 0.6 * knee, collapse
    assert any("completion mirage" in note for note in curves.notes)


def test_protected_completions_equal_persistence(curves):
    """The protected stack never completes what the device has not
    served: goodput tracks persisted IOPS at every load point."""
    for row in curves.series(system="rio", protection="full"):
        assert row["goodput_kiops"] <= row["persisted_kiops"] * 1.05, row


def test_gray_scenario_contains_the_blast_radius():
    r = probe_gray(seed=42)
    assert r["breaker_trips"] >= 1
    assert r["sick_breaker_open"] == 1.0
    assert r["healthy_breakers_closed"] == 1.0
    assert r["failovers"] >= 1
    assert r["brownouts"] >= 1
    assert r["bystander_p999_us"] < 60.0
    # Seeded determinism: the same cell twice is value-identical.
    assert probe_gray(seed=42) == r


def test_overload_is_a_registered_figure():
    assert "overload" in figures.SWEEP_BUILDERS
    sweep = figures.SWEEP_BUILDERS["overload"](**GRID)
    assert len(sweep.specs) == 6


def test_parallel_overload_is_bit_identical_to_serial():
    small = dict(GRID, loads_kiops=(200, 400), duration=1e-3)
    serial = SweepRunner(jobs=1).run(overload_sweep(**small))
    parallel = SweepRunner(jobs=2).run(overload_sweep(**small))
    assert serial.headers == parallel.headers
    assert serial.rows == parallel.rows  # == on floats: bit-identical
    assert serial.notes == parallel.notes
    assert serial.render() == parallel.render()


def test_warm_cache_overload_rerun_executes_nothing(tmp_path):
    small = dict(GRID, loads_kiops=(200, 400), duration=1e-3)
    cold = SweepRunner(jobs=2, cache=ResultCache(root=tmp_path,
                                                 version="test"))
    first = cold.run(overload_sweep(**small))
    assert cold.stats.executed == 4 and cold.stats.cache_hits == 0

    warm = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path,
                                                 version="test"))
    second = warm.run(overload_sweep(**small))
    assert warm.stats.executed == 0 and warm.stats.cache_hits == 4
    assert first.rows == second.rows
    assert first.render() == second.render()


def test_overload_curves_uses_default_runner():
    result = overload_curves(systems=("rio",), loads_kiops=(200,),
                             duration=5e-4)
    assert len(result.rows) == 2  # off + full at one load


#: Whole rows of `probe_overload("rio", "optane", 1100, p, duration=1e-3)`
#: and `probe_gray(duration=2e-3, degrade_at=0.5e-3)`, pinned exactly:
#: any change to the open-loop generator that moves a single op, status
#: or latency sample changes one of these values.
PINNED_OVERLOAD_ROWS = {
    "full": {
        "offered_kiops": 1100, "goodput_kiops": 511.0,
        "persisted_kiops": 512.0, "completion_debt_kiops": -1.0,
        "good_ops": 511.0, "failed_ops": 0.0, "timeout_rate": 0.0,
        "p50_us": 646.5848512912328, "p99_us": 855.5420459421076,
        "p999_us": 985.9612555424052, "commands_received": 1073.0,
        "commands_shed": 193.0, "shed_rate": 0.1798695246971109,
        "timeouts": 0.0, "retries": 0.0, "retries_suppressed": 0.0,
        "requeues": 840.0, "fast_fails": 0.0, "dead_streams": 0.0,
    },
    "off": {
        "offered_kiops": 1100, "goodput_kiops": 1055.0,
        "persisted_kiops": 512.0, "completion_debt_kiops": 543.0,
        "good_ops": 1055.0, "failed_ops": 0.0, "timeout_rate": 0.0,
        "p50_us": 138.25668562950435, "p99_us": 242.13343805017064,
        "p999_us": 245.8046437185539, "commands_received": 3041.0,
        "commands_shed": 0.0, "shed_rate": 0.0, "timeouts": 0.0,
        "retries": 1474.0, "retries_suppressed": 0.0, "requeues": 0.0,
        "fast_fails": 0.0, "dead_streams": 0.0,
    },
}

PINNED_GRAY_ROW = {
    "offered_kiops": 120, "goodput_kiops": 76.0, "failed_ops": 96.0,
    "brownouts": 96.0, "bystander_p999_us": 31.133720512154742,
    "sick_tenants_active": 2.0, "breaker_trips": 1.0,
    "sick_breaker_open": 1.0, "healthy_breakers_closed": 1.0,
    "failovers": 2.0, "unordered_good": 64.0, "unordered_failed": 0.0,
    "unordered_on_sick": 17.0, "unordered_on_healthy": 47.0,
    "commands_received": 376.0, "commands_shed": 0.0, "shed_rate": 0.0,
    "timeouts": 0.0, "retries": 0.0, "retries_suppressed": 0.0,
    "requeues": 0.0, "fast_fails": 96.0, "dead_streams": 2.0,
}


@pytest.mark.parametrize("protection", sorted(PINNED_OVERLOAD_ROWS))
def test_overload_row_is_pinned(protection):
    row = probe_overload("rio", "optane", 1100, protection, duration=1e-3)
    assert row == PINNED_OVERLOAD_ROWS[protection]


def test_gray_row_is_pinned():
    row = probe_gray(duration=2e-3, degrade_at=0.5e-3)
    assert row == PINNED_GRAY_ROW
