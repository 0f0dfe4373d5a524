"""Self-test of the benchmark: span arithmetic, wrapper removal and the gate.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def test_self_time_of_a_synthetic_nest():
    now = [0.0]
    tr = Tracer(clock=lambda: now[0])

    def work(seconds):
        now[0] += seconds

    a_inner = tr.span("A", lambda: work(3))

    def b_helper():
        work(4)
        a_inner()

    b_helper = tr.timer("helper", tr.span("B", b_helper))

    def b_mid():
        work(2)
        b_helper()  # same layer as b_mid: part of b_mid's span

    b_mid = tr.span("B", b_mid)

    def a_outer():
        work(1)
        b_mid()
        work(1)

    tr.span("A", a_outer)()
    assert (tr.layer_calls("A"), tr.layer_self_s("A")) == (2, 5)
    assert (tr.layer_calls("B"), tr.layer_self_s("B")) == (1, 6)
    assert (tr.timer_calls("helper"), tr.timer_s("helper")) == (1, 7)


def test_cells_covered_counts_overlap_once():
    tr = Tracer()
    tr.cells.extend([(1.0, 3.0), (0.0, 2.0), (5.0, 6.0), (5.5, 5.75)])
    assert tr.cells_covered_s() == 4.0


def _namespaces_snapshot() -> dict:
    snap = {}
    for name, mod in sys.modules.items():
        if name == "femforge" or name.startswith("femforge."):
            for attr, obj in vars(mod).items():
                snap[(name, attr)] = obj
                if isinstance(obj, type) and obj.__module__ == name:
                    for key, member in vars(obj).items():
                        snap[(name, attr, key)] = member
    return snap


def test_wrappers_fully_removed_after_a_traced_run():
    import femforge.cli  # noqa: F401
    from femforge.simplex import reference_simplex

    before = _namespaces_snapshot()
    tr = Tracer()
    layers.install(tr)
    assert layers.leftover_wrappers()
    from femforge.elements import build_element, check_unisolvence, trace_block_rank

    elem = build_element(reference_simplex(2), "BDM", 1)
    assert check_unisolvence(elem).passed and trace_block_rank(elem).passed
    tr.restore()
    assert layers.leftover_wrappers() == []
    after = _namespaces_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    figures = layers.metrics(tr, 1.0, 1)
    assert figures["elements.dofs"] == 6 and figures["elements.apply_dof_calls"] == 36
    assert figures.keys() == set(layers.PER_LAYER) - {"trace_overhead"}


def _fabricated_report(statuses) -> str:
    checks = [{"id": f"check-{i}", "status": s} for i, s in enumerate(statuses)]
    return json.dumps({"checks": checks})


def test_gate_flags_a_fabricated_fail():
    good = ["pass"] * 115 + ["skip"] * 11
    assert workloads.gate_report(_fabricated_report(good), 0) == (128, 0)
    bad = ["fail"] + good[1:]
    attempted, failed = workloads.gate_report(_fabricated_report(bad), 0)
    assert attempted == 128 and failed >= 1
    assert workloads.gate_report(_fabricated_report(good), 2) == (128, 1)


def test_gate_checks_cells_against_closed_forms():
    cells = [{"family": "BDM", "k": 4, "dim": 105, "unisolvent": True, "rank": 105, "trace_block": True},
             {"family": "DivDiv", "k": 4, "dim": 210, "unisolvent": True, "rank": 209, "trace_block": True}]
    assert workloads.gate_cells("certify-d3", cells) == (6, 1)
    assert workloads.gate_cells("certify-d3", cells[:1]) == (6, 3)
    job = workloads.make_job("enrich-d3", 3)
    assert workloads.gate(job, {"error": "ZeroDivisionError"}) == (3, 3)


def test_inputs_repeat_for_a_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_job(workload, 5) == workloads.make_job(workload, 5)
    verts = workloads.reflected_simplex(7)
    assert all(-3 <= x <= 3 for v in verts for x in v)
    edges = [[v[t] - verts[0][t] for t in range(3)] for v in verts[1:]]
    assert abs(workloads._det3(edges)) == abs(workloads._det3(
        [[v[t] - workloads.BASE_SIMPLEX[0][t] for t in range(3)] for v in workloads.BASE_SIMPLEX[1:]]))


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
