"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins BLAS threads, puts bench/ on the path)
import child  # noqa: E402

child.use_checkout_source()

import quickfourier  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from quickfourier import OpCounter, classical, costmodel, improved  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

TINY = workloads.SCALES["tiny"]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, lines = run.measure(workload, 5, 0.1, trace, "tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"])
        assert any(line.split()[:1] == [name] for line in lines)
        if not trace:
            assert metric["value"] > 0, name
    assert any(line.startswith("error_rate") for line in lines)
    json.dumps(result)


def test_wrappers_restore_every_attribute():
    before = tracing.snapshot(quickfourier)
    tracer = tracing.Tracer(quickfourier)
    tracer.install()
    try:
        assert improved.cadd is not before[("quickfourier.improved", "cadd")]
        counter = OpCounter()
        improved.cdft(np.exp(2j * np.pi * np.arange(16) / 16), counter=counter)
    finally:
        tracer.uninstall()
    after = tracing.snapshot(quickfourier)
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    m = tracing.layer_metrics(tracer.record())
    want = costmodel.predicted_cost("improved", "cdft", 16)
    assert (m["counting.adds"], m["counting.muls"]) == want == (counter.adds, counter.muls)
    assert tracer.counter_totals() == want
    assert m["improved.calls"] == 1 and m["classical.calls"] == 0


def test_perturbed_spectrum_fails_the_gate():
    calls = workloads.single_calls(5, TINY, costmodel)
    modules = {"classical": classical, "improved": improved}
    for c in calls[:16]:
        counter = OpCounter()
        out = getattr(modules[c.algorithm], c.transform)(c.x, counter=counter)
        want = workloads.oracle(c.transform, c.x)
        assert workloads.check_call(c, out, counter, want) is None
        assert workloads.check_call(c, out * (1 + 1e-9), counter, want) is not None
        bumped = out.copy()
        bumped[len(bumped) // 2] += 1e-3
        assert workloads.check_call(c, bumped, counter, want) is not None
        assert workloads.check_call(c, out[:-1], counter, want) is not None
        assert workloads.check_call(c, ValueError("raised"), counter, want) is not None
        counter.adds += 1
        assert workloads.check_call(c, out, counter, want) is not None


def test_survey_checker_rejects_bad_runs():
    signal = workloads.survey_signal(5, TINY)
    spectrum = workloads.oracle("dct0", signal)
    adds, muls = costmodel.predicted_cost("improved", "dct0", TINY.transform_n)
    argv = ["transform", "--transform", "dct0", "--input", "x", "--counts"]

    def proc(values, code=0):
        text = "".join(f"{v:.17g}\n" for v in values)
        return types.SimpleNamespace(returncode=code, stdout=text,
                                     stderr=f"adds={adds} muls={muls} flops={adds + muls}\n")

    reason, flops = workloads.check_survey_run(argv, proc(spectrum), TINY, costmodel, signal)
    assert reason is None and flops == adds + muls
    bumped = spectrum.copy()
    bumped[1] += 1e-6
    assert workloads.check_survey_run(argv, proc(bumped), TINY, costmodel, signal)[0]
    assert workloads.check_survey_run(argv, proc(spectrum, 2), TINY, costmodel, signal)[0]
    assert workloads.check_survey_run(["selftest"], proc([]), TINY, costmodel, signal)[0]


def test_peak_memory_counts_the_library_not_the_inputs():
    calls = workloads.batch_calls(5, TINY, costmodel)
    modules = {"classical": classical, "improved": improved}
    peak = run.call_peak_mb(calls, modules, workloads) * 2**20
    largest_output = max(getattr(modules[c.algorithm], c.transform)(c.x).nbytes for c in calls)
    assert largest_output <= peak < sum(c.x.nbytes for c in calls)
