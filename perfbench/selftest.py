"""Self-tests of the benchmark's own arithmetic and tracing.

    python3 perfbench/selftest.py

Needs the fixture checkpoint; takes about half a minute. Kept out of the
repository's pytest suite on purpose: it times sleeps and runs workloads.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

import common

import numpy as np

import tracing
import workloads
from conformerst import frontend

SLEEP_S = 0.05  # well above the run-to-run noise of a p50 over five utterances


def mini_decode(work_dir, tracer=None):
    """Greedy decoding of one utterance per length, set up once."""
    sizes = workloads.DECODE_UTTS, workloads.SETUP_REPEATS, workloads.SETUP_SECONDS
    workloads.DECODE_UTTS = len(workloads.DECODE_TOKEN_COUNTS)
    workloads.SETUP_REPEATS, workloads.SETUP_SECONDS = 1, 0.0
    try:
        return workloads.decode_workload("decode-asr-greedy", seed=0, seconds=0.01,
                                         work_dir=work_dir, tracer=tracer)
    finally:
        workloads.DECODE_UTTS, workloads.SETUP_REPEATS, workloads.SETUP_SECONDS = sizes


def attribute_snapshot():
    """Every callable attribute of the package's modules and traced classes
    (module data such as a lazily built filterbank may change legitimately)."""
    owners = list(tracing.PACKAGE_MODULES) + [owner for owner, *_ in tracing.TARGETS
                                              if isinstance(owner, type)]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items()) if callable(v)}


def frontend_self_ms(tracer) -> float:
    """Frontend self time per timed utterance, straight from the spans."""
    s = tracer.spans()
    names = np.array(tracer.names)[s["nid"]]
    self_t = tracing.self_times(s["t1"] - s["t0"], s["parent"])
    timed = tracer.timed(s["unit"])
    layer = np.array([n.split(".", 1)[0] for n in names])
    n = int((timed & (names == "bench.utterance")).sum())
    return float(self_t[timed & (layer == "frontend")].sum()) * 1000.0 / n


def test_self_time_arithmetic():
    # root(10) -> a(3) -> c(1), root -> b(4): self = 3, 2, 4, 1
    dur = np.array([10.0, 3.0, 4.0, 1.0])
    parent = np.array([-1, 0, 0, 1])
    assert np.allclose(tracing.self_times(dur, parent), [3.0, 2.0, 4.0, 1.0])

    tracer = tracing.Tracer()
    inner = tracer._wrap(lambda: time.sleep(0.01), "losses.inner")
    outer = tracer._wrap(lambda: (inner(), time.sleep(0.02)), "model.outer")
    tracer.begin_unit(1)
    outer()
    tracer.end_unit()
    s = tracer.spans()
    names = [tracer.names[i] for i in s["nid"]]
    assert names == ["bench.utterance", "model.outer", "losses.inner"]
    assert list(s["parent"]) == [-1, 0, 1]
    self_t = tracing.self_times(s["t1"] - s["t0"], s["parent"])
    assert abs(self_t[1] - 0.02) < 0.005 and abs(self_t[2] - 0.01) < 0.005


def test_wrappers_restore_attributes(work_dir):
    before = attribute_snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    patched = attribute_snapshot()
    try:
        mini_decode(work_dir, tracer)
    finally:
        tracer.uninstall()
    assert patched != before, "install() patched nothing"
    after = attribute_snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, f"attributes not restored: {changed}"


def test_injected_sleep(work_dir):
    original = frontend.extract_features

    def slow(samples):
        time.sleep(SLEEP_S)
        return original(samples)

    def run_pair(traced: bool):
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            result = mini_decode(work_dir, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        return result, tracer

    base, _ = run_pair(False)
    base_t, base_tracer = run_pair(True)
    frontend.extract_features = slow
    try:
        slept, _ = run_pair(False)
        slept_t, slept_tracer = run_pair(True)
    finally:
        frontend.extract_features = original
    assert frontend.extract_features is original

    rise_e2e = (slept.metrics["utt_ms_p50"] - base.metrics["utt_ms_p50"]) / 1000.0
    rise_layer = (frontend_self_ms(slept_tracer) - frontend_self_ms(base_tracer)) / 1000.0
    assert 0.8 * SLEEP_S <= rise_e2e <= 1.5 * SLEEP_S, rise_e2e
    assert 0.8 * SLEEP_S <= rise_layer <= 1.5 * SLEEP_S, rise_layer


def main() -> int:
    root = os.path.join(common.REPO_ROOT, ".perfbench_work")
    os.makedirs(root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="selftest-", dir=root)
    try:
        for test in (test_self_time_arithmetic,):
            test()
            print(f"ok   {test.__name__}")
        for test in (test_wrappers_restore_attributes, test_injected_sleep):
            test(os.path.join(work_dir, test.__name__))
            print(f"ok   {test.__name__}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
