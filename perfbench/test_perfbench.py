"""Self-test of the benchmark at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

It checks that every workload prints every named metric with its unit,
that outputs verify, that two runs with one seed give identical
simulated results, that the traced run reports its layers with sane
span nesting, and that the rationale and layer map are recorded.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import read_spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Layers each workload must exercise (reported non-zero when traced).
EXERCISED = {
    "net-tx": ["minicc.s", "ir.verify.calls", "passes.kop-guard-opt.s",
               "insmod.s", "vm.translate.calls", "vm.exec.self_s",
               "vm.instr_per_op", "policy.check.s", "policy.checks_per_op",
               "e1000e.mmio.s", "e1000e.mmio_per_op", "net.sendmsg.self_s"],
    "blk-mixed": ["minicc.s", "absint.s", "absint.guards_proven",
                  "insmod.reverify.s", "vm.exec.self_s", "policy.check.s",
                  "vblk.mmio.s", "vblk.mmio_per_op",
                  "vblk.dma_sectors_per_op", "blk.submit.self_s"],
    "module-churn": ["minicc.s", "passes.mem2reg.s", "absint.s",
                     "insmod.reverify.s", "rmmod.s", "vm.translate.s",
                     "compile.calls", "policy.mutate.s", "policy.mutations",
                     "kernel.verify_demotions", "e1000e.mmio.s",
                     "vblk.mmio.s"],
}


def bench(workload, seed, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    meta = json.loads(lines[-2].split(" ", 1)[1])
    return res, meta


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"][:2] == ["python3", "perfbench/run.py"]
    assert "setup_s" in E2E and E2E["setup_s"] == "s"
    setup_bound = next(m["bound"] for m in SPEC["end_to_end"]
                       if m["name"] == "setup_s")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= setup_bound <= 0.25
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200


def test_rationale_and_layer_map_recorded():
    assert set(LAYER_MAP["rationale"]) == set(WORKLOADS)
    seen = []
    for group in LAYER_MAP["groups"]:
        seen += group["metrics"]
        for key in ("moves", "no_change"):
            for workload, metrics in group[key].items():
                assert workload in WORKLOADS
                assert set(metrics) <= set(E2E), metrics
    assert sorted(seen) == sorted(PER_LAYER), "each per-layer metric once"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_metrics_and_determinism(workload):
    first, meta = result(bench(workload, 7))
    assert first["correct"] and first["failed"] == 0
    assert first["attempted"] >= 1
    assert {k: v["unit"] for k, v in first["metrics"].items()} == E2E
    assert all(v["value"] > 0 for v in first["metrics"].values())
    assert meta["error_rate"] == 0
    for key in ("nproc", "python", "platform", "git_sha", "seed",
                "seconds", "traced"):
        assert key in meta

    again, meta2 = result(bench(workload, 7))
    sim = {k: v for k, v in first["metrics"].items() if k.startswith("sim_")}
    assert sim == {k: v for k, v in again["metrics"].items() if k.startswith("sim_")}
    assert meta["sim_fingerprint"] == meta2["sim_fingerprint"]

    held_out, meta3 = result(bench(workload, 90210))
    assert held_out["correct"]
    assert meta3["sim_fingerprint"] != meta["sim_fingerprint"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_and_spans(workload):
    res, meta = result(bench(workload, 3, trace=1))
    assert res["correct"]
    metrics = res["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == PER_LAYER
    for name in EXERCISED[workload]:
        assert metrics[name]["value"] > 0, name
    assert metrics["policy.denied"]["value"] == 0
    assert metrics["trace.nesting_violations"]["value"] == 0

    spans = read_spans(HERE / "out" / f"{workload}-seed3-trace1.spans.gz")
    assert len(spans["start"]) == metrics["trace.spans"]["value"]
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    for i in range(len(start)):
        p = parent[i]
        assert start[i] <= end[i]
        if p >= 0:
            assert start[p] <= start[i] and end[i] <= end[p]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("net-tx", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
