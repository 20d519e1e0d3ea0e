"""Self-tests of the benchmark itself (about a minute):

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from run import BENCH, ROOT, WORKLOAD_NAMES, import_library

import_library()

from qhflag import pwlift, rootsys  # noqa: E402
from tracing import METRICS, Tracer, library_modules  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

REFERENCE = load_reference()


def _namespaces():
    """Every attribute of every qhflag module and of the classes they define."""
    out = {}
    for module in library_modules():
        out[module.__name__] = dict(vars(module))
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                out[f"{module.__name__}.{name}"] = dict(vars(value))
    return out


def _traced_counts(name: str, seed: int, ops: int) -> dict:
    """Count metrics of a traced round cut to its first ``ops`` operations."""
    workload = WORKLOADS[name](REFERENCE)
    inputs = workload.draw(random.Random(seed))[:ops]
    tracer = Tracer()
    tracer.install()
    try:
        state = workload.setup()
        outputs = workload.run(state, inputs, tracer)
    finally:
        tracer.uninstall()
    assert all(not isinstance(out, Exception) for out in outputs)
    values = tracer.metrics()
    return {m: values[m] for m, unit in METRICS
            if unit == "count" and m in values}


def test_benchmark_json_lists_what_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert set(WORKLOAD_NAMES) == set(WORKLOADS)


def test_wrappers_are_restored():
    before = _namespaces()
    tracer = Tracer()
    tracer.install()
    wrapped = _namespaces()
    tracer.uninstall()
    after = _namespaces()
    assert before.keys() == after.keys()
    for key, attrs in before.items():
        assert attrs.keys() == after[key].keys(), key
        for attr, value in attrs.items():
            assert after[key][attr] is value, f"{key}.{attr}"
    # install() really replaced the from-import bindings as well.
    assert wrapped["qhflag.weyl"]["multiply"] is not before["qhflag.weyl"]["multiply"]
    ring_methods = "qhflag.qchev.QuantumFlagRing"
    assert (wrapped[ring_methods]["quantum_product"]
            is not before[ring_methods]["quantum_product"])
    assert (wrapped["qhflag.cli"]["qclass_to_json"]
            is wrapped["qhflag.qchev"]["qclass_to_json"]
            is not before["qhflag.qchev"]["qclass_to_json"])
    assert (wrapped["qhflag"]["pw_lift"] is wrapped["qhflag.pwlift"]["pw_lift"]
            is not before["qhflag.pwlift"]["pw_lift"])


@pytest.mark.parametrize("name,ops", [("products-D4", 3000), ("qhp-B4", 3)])
def test_traced_counts_repeat(name, ops):
    first = _traced_counts(name, 7, ops)
    assert first["trace.spans"] > 0
    assert _traced_counts(name, 7, ops) == first


def test_products_digest_equal_across_seeds():
    workload = WORKLOADS["products-D4"](REFERENCE)
    for seed in (1, 2):
        ring = workload.setup()
        inputs = workload.draw(random.Random(seed))
        outputs = workload.run(ring, inputs, None)
        assert workload.check(ring, inputs, outputs) == (len(inputs), 0)
    assert len(inputs) == len(ring.elements) ** 2


def test_products_check_catches_a_wrong_product():
    workload = WORKLOADS["products-D4"](REFERENCE)
    ring = workload.setup()
    inputs = workload.draw(random.Random(3))
    outputs = workload.run(ring, inputs, None)
    outputs[5] = outputs[5] + [{"word": [], "q": [0, 0, 0, 1], "coeff": "1"}]
    outputs[9] = ValueError("raised")
    assert workload.check(ring, inputs, outputs) == (len(inputs), 2)


def test_stored_wp_words_are_minimal_representatives():
    ref = REFERENCE["qhp-B4"]
    rs = rootsys.build_root_system("B", 4)
    reps = pwlift.minimal_representatives(rs, tuple(ref["parabolic"]))
    assert [list(w.word()) for w in reps] == ref["wp_words"]
    assert len(ref["products"]) == len(reps) ** 2


def test_qhp_rounds_match_every_element_once():
    workload = WORKLOADS["qhp-B4"](REFERENCE)
    pairs = workload.draw(random.Random(11))
    assert sorted(u for u, _ in pairs) == sorted(workload.wp_words)
    assert sorted(v for _, v in pairs) == sorted(workload.wp_words)


def test_refuses_to_run_without_the_library():
    """A directory holding only the benchmark must fail without a result."""
    bare = os.path.join(BENCH, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join("bench", "run.py"), "--workload",
             "qhp-B4", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
