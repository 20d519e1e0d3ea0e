"""The benchmark tracer patches library names by string; a rename or a
generator entry point would break it only when the benchmark runs.  These
checks read its name lists and fail fast instead."""

import importlib
import importlib.util
import inspect
import os

import pytest

import qhflag
from qhflag import build_root_system, cli, pwlift, qchev, weyl

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_qhflag_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("qualname", tracing.SPANNED + tracing.COUNTED)
def test_traced_name_resolves_to_plain_callable(qualname):
    importlib.import_module("qhflag." + qualname.split(".")[0])
    owner, attr = tracing._resolve(qualname)
    func = inspect.getattr_static(owner, attr)
    assert callable(func), qualname
    assert not inspect.isgeneratorfunction(func), qualname


def test_bindings_the_tracer_patches_through():
    assert cli.qclass_to_json is qchev.qclass_to_json
    assert qhflag.pw_lift is pwlift.pw_lift


def test_freeze_gives_equal_hashable_keys_for_equal_arguments():
    # _freeze reads WeylElt.cmat and RootSystem.key(); losing either must
    # fail here, not only in a traced benchmark run.
    tracer = tracing.Tracer()
    freeze = tracer._freeze
    rs, twin = build_root_system("B", 3), build_root_system("B", 3)
    w = weyl.word_to_element(rs, [1, 2, 3])
    pairs = [
        (rs, twin),
        (w, weyl.word_to_element(twin, [1, 2, 3])),
        ({3: 1, 2: 0}, {2: 0, 3: 1}),
        ((rs, (1, 2), {3: 1}), (twin, [1, 2], {3: 1})),
    ]
    for a, b in pairs:
        assert freeze(a) == freeze(b)
        assert hash(freeze(a)) == hash(freeze(b))
    assert freeze(w) != freeze(weyl.word_to_element(rs, [3, 2, 1]))
    assert freeze(rs) != freeze(build_root_system("C", 3))
