"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def expected_metrics(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def workload(request):
    return request.param


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"),
                                         (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    info, result, spans = run.report(workload, workloads.TINY[workload],
                                     seed=5, seconds=0, trace=trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected_metrics(kind)
    assert result["attempted"] >= 1 + trace
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    if trace:
        assert spans
        assert all(m["value"] >= 0 for name, m in result["metrics"].items()
                   if name.endswith(".self_s"))
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload != "converge":  # rates are not asymptotic at tiny sizes
        assert result["correct"], info["passes"]


@pytest.mark.parametrize("name", ["march", "refactor"])
def test_corrupted_reference_fails_the_gate(name):
    size = workloads.TINY[name]
    result = workloads.WORKLOADS[name](size, seed=3)
    reference = workloads.load_reference()
    assert workloads.gate(name, size, result, reference) == []
    key = workloads.size_key(name, size)
    corrupted = json.loads(json.dumps(reference))
    corrupted[key]["Eu"][1] *= 1 + 10 * workloads.ERROR_RTOL
    failures = workloads.gate(name, size, result, corrupted)
    assert len(failures) == 1 and "member 2 Eu" in failures[0]
    assert workloads.gate(name, size, result, {})


def test_gate_checks_factorization_counts_and_rates():
    size = {"levels": [1, 2]}
    result = {"factorizations": [1, 1],
              "rates": {"Eu": [2.0], "Eq": [2.1], "Eustar": [3.1]}}
    assert workloads.gate("converge", size, result, {}) == []
    result["rates"]["Eustar"] = [2.5]
    assert workloads.gate("converge", size, result, {})
    result["rates"]["Eustar"] = [3.1]
    result["factorizations"] = [1, 2]
    assert workloads.gate("converge", size, result, {})


def test_member_order_does_not_change_the_errors():
    size = workloads.TINY["refactor"]
    a = workloads.refactor(size, seed=0)
    b = workloads.refactor(size, seed=4)
    for key in a["errors"]:
        assert a["errors"][key] == pytest.approx(b["errors"][key],
                                                 rel=1e-10)


def test_traced_run_restores_every_binding():
    before = tracing.originals()
    tracer = tracing.Tracer()
    workloads.march(workloads.TINY["march"], 0, tracer.installed())
    assert all(a is b for a, b in zip(tracing.originals(), before))
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("fails inside the traced region")
    assert all(a is b for a, b in zip(tracing.originals(), before))


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()
    workloads.refactor(workloads.TINY["refactor"], 0, tracer.installed())
    summary = tracer.summary()
    names, starts, ends, parents = (tracer.names, tracer.starts,
                                    tracer.ends, tracer.parents)
    step = names.index("solver.EnsembleSolver.step")
    assert {names[i] for i, p in enumerate(parents) if p == step} >= {
        "local.assemble_all_blocks", "trace_system.factorize",
        "local.assemble_all_rhs", "trace_system.solve_multi"}
    for i, p in enumerate(parents):
        assert starts[i] <= ends[i]
        if p >= 0:
            assert starts[p] <= starts[i] and ends[i] <= ends[p]
    assert summary["trace_system.factorize"]["calls"] == 4
    assert len(tracer.lu_fill_nnz) == 4
    assert all(v["self_s"] >= 0 for v in summary.values())


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "march",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
