"""Legacy JSON shapes upgrade to spec v1 and replay bit-identically."""

import json

from repro.check import WorkloadSpec, check_workload, dump_reproducer
from repro.check.runner import build_matrix_specs, run_check_matrix
from repro.sim.faults import FaultPlan
from repro.spec import (
    ScenarioSpec,
    load_spec_file,
    run_scenario,
    upgrade_fault_plan,
    upgrade_workload_spec,
)

_LEGACY = {
    "system": "linux", "layout": "optane", "seed": 0, "streams": 1,
    "groups_per_stream": 2, "writes_per_group": 1, "depth": 1,
    "flush_every": 2, "max_points": 4, "initiators": 1, "prefill": 0.0,
}


def test_upgraded_workload_spec_replays_bit_identically():
    upgraded = upgrade_workload_spec(_LEGACY)
    outcome = run_scenario(upgraded)
    legacy = run_check_matrix(build_matrix_specs(
        systems=["linux"], layouts=["optane"], seeds=[0], streams=1,
        groups_per_stream=2, writes_per_group=1, depth=1, flush_every=2,
        max_points=4,
    ))
    assert outcome.render() == legacy.render()
    assert outcome.ok == legacy.ok


def test_upgrade_preserves_every_workload_field():
    upgraded = upgrade_workload_spec(
        {**_LEGACY, "system": "rio", "layout": "2optane-2targets",
         "initiators": 2, "prefill": 0.5, "seed": 9}
    )
    assert upgraded.topology["initiators"] == 2
    assert upgraded.devices["prefill"] == 0.5
    assert upgraded.workload["layouts"] == ["2optane-2targets"]
    assert upgraded.workload["seeds"] == [9]
    # Round trip back through WorkloadSpec: one cell, same content.
    cell = WorkloadSpec(
        system=upgraded.workload["systems"][0],
        layout=upgraded.workload["layouts"][0],
        seed=upgraded.workload["seeds"][0],
        streams=upgraded.workload["streams"],
        groups_per_stream=upgraded.workload["groups_per_stream"],
        writes_per_group=upgraded.workload["writes_per_group"],
        depth=upgraded.workload["depth"],
        flush_every=upgraded.workload["flush_every"],
        max_points=upgraded.oracle["max_points"],
        initiators=upgraded.topology["initiators"],
        prefill=upgraded.devices["prefill"],
    )
    assert cell.system == "rio"
    assert cell.prefill == 0.5


def test_dumped_reproducer_runs_via_the_spec_path(tmp_path):
    wspec = WorkloadSpec.from_dict(_LEGACY)
    report = check_workload(wspec)
    path = tmp_path / "reproducer.json"
    dump_reproducer(path, report)
    payload = json.loads(path.read_text())
    # The dump embeds both shapes and both load to the same spec.
    assert payload["kind"] == "repro-check-reproducer"
    spec = load_spec_file(path)
    assert spec.to_dict() == payload["scenario_spec"]
    outcome = run_scenario(spec)
    assert outcome.ok == report.ok


def test_upgraded_fault_plan_replays_bit_identically():
    plan = FaultPlan(seed=7, delay_probability=0.02)
    plan.target_stall(at=1e-4, target_index=0, duration=5e-5)
    upgraded = upgrade_fault_plan(plan.to_dict())
    # Narrow to one cheap trial for the differential.
    narrowed = upgraded.with_(workload={
        **upgraded.workload, "systems": ["linux"], "threads": 2,
        "groups_per_thread": 4,
    })
    outcome = run_scenario(narrowed)

    from repro.harness.chaos import run_chaos_trial

    legacy = run_chaos_trial(system="linux", seed=1000, threads=2,
                             groups_per_thread=4,
                             plan_spec=narrowed.faults)
    (trial,) = outcome.result.results
    assert trial.summary() == legacy.summary()


def test_faultplan_serialization_round_trips():
    plan = FaultPlan(seed=3, message_loss=0.02, corruption=0.01,
                     delay_probability=0.05, delay_range=(1e-6, 9e-6))
    plan.qp_breakdown(at=2e-4, qp_index=1)
    plan.target_crash(at=3e-4, target_index=0, restart_after=1e-4)
    plan.degrade(at=4e-4, target_index=0, factor=4.0, duration=2e-4)
    rebuilt = FaultPlan.from_dict(plan.to_dict())
    assert rebuilt.to_dict() == plan.to_dict()


def test_calendar_engine_saturate_spec_replays_like_heap():
    """Saturate specs once named a run loop; both engines were
    bit-identical, so a ``"engine": "calendar"`` document loads, drops
    the field and renders the same report as the spec without it."""
    workload = {"systems": ["rio"], "loads_kiops": [100], "duration": 1e-3}
    legacy = run_scenario(ScenarioSpec.from_dict(
        {"scenario": "saturate",
         "workload": {**workload, "engine": "calendar"}}
    ))
    plain = run_scenario(ScenarioSpec.from_dict(
        {"scenario": "saturate", "workload": workload}
    ))
    assert legacy.render() == plain.render()
