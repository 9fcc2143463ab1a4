"""The benchmark's own tests, at smoke size.

    python3 -m pytest -q perfbench/selftest.py

Run from the root of a checkout; the end-to-end cases run the CLI from its
``src/`` and write under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _digests(d: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    a = gen.generate(workload, tmp_path / "a", 7, "smoke")
    b = gen.generate(workload, tmp_path / "b", 7, "smoke")
    c = gen.generate(workload, tmp_path / "c", 8, "smoke")
    assert a == b
    assert _digests(tmp_path / "a") == _digests(tmp_path / "b")
    assert _digests(tmp_path / "a") != _digests(tmp_path / "c")


def test_merges_file_has_no_rule_starting_with_hash(tmp_path):
    gen.generate("frozen-bytebpe", tmp_path, 3, "smoke")
    lines = (tmp_path / "byte50k.merges.txt").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "#version: 0.2"
    assert not any(ln.startswith("#") for ln in lines[1:])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_and_passes_the_gate(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    expected = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in expected} == set(result["metrics"])


def test_meta_maps_exactly_the_per_layer_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = json.loads((HERE / "meta.json").read_text())
    mapped = [name for group in meta["per_layer"] for name in group["metrics"]]
    assert len(mapped) == len(set(mapped))
    assert set(mapped) == {m["name"] for m in bench["per_layer"]}
    assert set(meta["end_to_end"]) - {"error_rate"} == {m["name"] for m in bench["end_to_end"]}


def test_frozen_outputs_do_not_depend_on_thread_count():
    bench = run.Bench(ROOT, "frozen-bytebpe", 5, "smoke")
    # premium runs at the CLI's default of 1 thread in the workload; give it
    # 2 here too, so its pool is compared across thread counts as well.
    premium = next(step for step in bench.steps if step.metric == "premium_s")
    premium.argv += ["--threads", "2"]
    bench.pipeline("threads2", traced=False)
    threaded = [step for step in bench.steps if "--threads" in step.argv]
    assert {"compare_s", "premium_s", "augment_s", "eval_s"} <= {step.metric for step in threaded}
    for step in threaded:
        step.argv[step.argv.index("--threads") + 1] = "1"
    bench.pipeline("threads1", traced=False)
    # The gate compares every output of the second pipeline with the first.
    assert bench.gate.attempted == 2 * len(bench.steps)
    assert bench.gate.failed == 0, bench.gate.problems


def test_gate_flags_na_and_inexact_control(tmp_path):
    doc = {"rows": [
        {"language": "hin", "cells": {"a": None}},
        {"language": "ctl", "cells": {"a": {"mean_ratio": 1.0000001, "totals_ratio": 1.0, "ratios": [1.0]}}},
    ]}
    (tmp_path / "premium.json").write_text(json.dumps(doc))
    (tmp_path / "premium.csv").write_text("language,script,a\nhin,Deva,NA\nctl,Latn,1.00\n")
    problems = run.premium_problems(tmp_path)
    assert len(problems) == 3


def test_self_time_on_a_hand_built_tree():
    # root [0,10] has children a [1,4] and b [3,6] (overlapping, as pool
    # threads do) and c [9,12], which reaches past the root and is clipped.
    # a has one child [2,3]; b has none.
    tree = [
        (1, 0, "root", 0.0, 10.0, None),
        (2, 1, "a", 1.0, 4.0, None),
        (3, 1, "b", 3.0, 6.0, None),
        (4, 1, "c", 9.0, 12.0, None),
        (5, 2, "a.child", 2.0, 3.0, None),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {1: 4.0, 2: 2.0, 3: 3.0, 4: 3.0, 5: 1.0}
    st = spans.SpanStats()
    st.add({"spans": tree})
    assert st.self_s["root"] == 4.0 and st.total["root"] == 10.0 and st.calls["a"] == 1


def test_tracer_passes_results_and_exceptions_through():
    tracer = spans.Tracer("t")
    add = tracer.wrap("add", lambda a, b: a + b, counts=lambda a, k, r: {"n": r})
    assert add(2, 3) == 5

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    names = [s[2] for s in tracer.spans]
    assert names == ["add", "boom"] and tracer.spans[0][5] == {"n": 5}


def test_missing_public_function_is_reported_not_fatal(monkeypatch):
    import tokenlens.training

    monkeypatch.delattr(tokenlens.training, "ulm_seed")
    tracer = spans.Tracer("t")
    undo = spans.install(tracer)
    try:
        assert "tokenlens.training.ulm_seed" in tracer.missing
        st = spans.SpanStats()
        st.add({"spans": [], "missing": tracer.missing})
        values, missing = spans.layer_metrics(st)
        assert "training.ulm_seed_s" in missing and "training.ulm_seed_s" not in values
        assert "training.ulm_prune_s" in values
    finally:
        for module, attr, original in undo:
            setattr(module, attr, original)
