"""The benchmark's tracer (perfbench/tracing.py) binds its wrappers to
library names given as strings; a rename in the library must fail here,
not silently drop a span from a traced run.  install() is never called,
so no wrapper reaches other tests."""

import importlib.util
from pathlib import Path

import cayleykit
import cayleykit.cli
import cayleykit.repro
from cayleykit.perm import PermGroup
from cayleykit.zoo import GroupSpec, regular_representation

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("cayleykit_bench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    for layer in tracing.LAYERS:
        assert hasattr(cayleykit, layer), layer
    for name, mod, attr, owner, _extra in tracing.SPANS:
        module = getattr(cayleykit, mod)
        if owner == "CLAIMS":
            target = module.CLAIMS.get(attr)
        elif owner is not None:
            target = getattr(getattr(module, owner, None), attr, None)
        else:
            target = getattr(module, attr, None)
        assert callable(target), name
    for oracle in tracing.ORACLES:
        assert callable(getattr(cayleykit.repro, oracle, None)), oracle
    for name, attr in tracing.COUNTED:
        assert callable(getattr(cayleykit.perm.Permutation, attr)), name


def test_regular_representation_has_group():
    # the closure workload builds its inputs through .group
    rep = regular_representation(GroupSpec.dicyclic(3), "left")
    assert isinstance(rep.group, PermGroup) and rep.group.order == 12
