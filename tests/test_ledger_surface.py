"""The names the benchmark ledger freezes, checked in tier-1.

``benchmarks/ledger/instrument.py`` wraps public entry points by
``vars(owner)[attr]`` for its traced run and reads positional arguments
of two of them; nothing else in ``tests/`` notices when a rename, an
inherited method or a reordered signature breaks that run (DESIGN.md
section 5, item 8).  The ledger's files are read, never written.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

LEDGER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "benchmarks", "ledger")


@pytest.fixture(scope="module")
def instrument():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(LEDGER)  # it imports its sibling ``spans``
        spec = importlib.util.spec_from_file_location(
            "ledger_instrument", os.path.join(LEDGER, "instrument.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module


def _raw(mod_name, cls_name, attr):
    """What ``instrument._install`` would wrap: the attribute as defined
    in the owner's own body (an inherited method is a ``KeyError``)."""
    owner = importlib.import_module(mod_name)
    if cls_name:
        owner = getattr(owner, cls_name)
    raw = vars(owner)[attr]
    return raw.__func__ if isinstance(raw, classmethod) else raw


def test_every_wrapped_name_resolves_to_a_callable(instrument):
    for mod_name in instrument._IMPORT_FIRST:
        importlib.import_module(mod_name)
    entries = [e[:3] for e in instrument.SPANS] + [e[:3] for e in instrument.HOT]
    assert len(entries) > 30
    for mod_name, cls_name, attr in entries:
        assert callable(_raw(mod_name, cls_name, attr)), (mod_name, cls_name, attr)


def test_positional_arguments_the_wrappers_read(instrument):
    """``machine.simulate_tiled``'s counts read ``a[1].n_tiles``; the hot
    wrapper keys ``update_component`` by its first argument."""
    simulate = _raw("repro.machine.simulator", None, "simulate_tiled")
    assert list(inspect.signature(simulate).parameters)[:2] == ["spec", "plan"]
    from repro.core.plan import TilingPlan
    assert isinstance(TilingPlan.n_tiles, property)
    (key_index,) = [e[3] for e in instrument.HOT if e[2] == "update_component"]
    update = _raw("repro.fdfd.kernels", None, "update_component")
    assert list(inspect.signature(update).parameters)[key_index] == "name"
