"""Fast smoke tests of every figure harness (tiny windows).

The benchmarks run these at full fidelity; here we only verify that each
harness entry point builds its testbed, runs, and produces rows of the
expected shape — so `pytest tests/` catches harness regressions without
benchmark-scale runtimes.
"""

import pytest

from repro.harness import figures
from repro.harness import extensions

TINY = 0.8e-3


def test_fig02_smoke():
    result = figures.fig02_motivation(ssd="optane", threads=(1, 2),
                                      duration=TINY)
    assert len(result.rows) == 6
    assert all(row["kiops"] >= 0 for row in result.rows)


def test_fig03_smoke():
    result = figures.fig03_merging_cpu(batches=(1, 4), duration=TINY)
    assert len(result.rows) == 2
    assert result.rows[0]["commands"] > result.rows[1]["commands"]


@pytest.mark.parametrize("panel", ["a", "b", "c", "d"])
def test_fig10_smoke(panel):
    result = figures.fig10_block_device(panel=panel, threads=(1,),
                                        duration=TINY)
    assert {row["system"] for row in result.rows} == {
        "linux", "horae", "rio", "orderless"
    }
    rio = result.column("kiops", system="rio", threads=1)[0]
    linux = result.column("kiops", system="linux", threads=1)[0]
    assert rio > linux


def test_fig11_smoke():
    result = figures.fig11_write_sizes(sizes_blocks=(1,), patterns=("seq",),
                                       duration=TINY)
    assert len(result.rows) == 4


def test_fig12_smoke():
    result = figures.fig12_batch_sizes(panel="a", batches=(1, 4),
                                       duration=TINY)
    rio_cmds = result.column("commands", system="rio", batch=4)[0]
    nomerge_cmds = result.column("commands", system="rio-nomerge", batch=4)[0]
    assert rio_cmds < nomerge_cmds


def test_fig13_smoke():
    result = figures.fig13_filesystem(threads=(1,), duration=1.5e-3,
                                      warmup=0.2e-3)
    assert {row["fs"] for row in result.rows} == {"ext4", "horaefs", "riofs"}
    assert all(row["kops"] > 0 for row in result.rows)


def test_fig14_smoke():
    result = figures.fig14_latency_breakdown(iterations=5)
    assert len(result.rows) == 3
    riofs = result.series(fs="riofs")[0]
    assert riofs["total_us"] > 0


def test_fig15a_smoke():
    result = figures.fig15a_varmail(threads=(1,), duration=1.5e-3)
    assert all(row["kops"] > 0 for row in result.rows)


def test_fig15b_smoke():
    result = figures.fig15b_rocksdb(threads=(1,), duration=1.5e-3)
    assert all(row["kops"] > 0 for row in result.rows)


def test_recovery_smoke():
    result = figures.recovery_table(trials=1, threads=4,
                                    run_before_crash=0.5e-3)
    assert {row["system"] for row in result.rows} == {"rio", "horae"}
    rio = result.series(system="rio")[0]
    assert rio["records"] > 0


def test_extension_smoke():
    result = extensions.transport_comparison(threads=1, duration=TINY)
    assert len(result.rows) == 4
    result = extensions.multi_initiator_scaling(initiator_counts=(1, 2),
                                                duration=TINY)
    assert len(result.rows) == 2
    # Exact values pin the multi-initiator assembly: any change to how
    # the testbed or its per-node Rio devices are built shows up here.
    assert result.rows == [
        {"initiators": 1, "total_kiops": 495.0, "per_initiator_kiops": 495.0},
        {"initiators": 2, "total_kiops": 493.75,
         "per_initiator_kiops": 246.875},
    ]
