"""Every entry point the layer profile wraps is defined on its own owner.

``perfbench/layers.py`` wraps each ``LAYERS`` entry through
``vars(owner)[name]``, so an entry point that is renamed, deleted or moved
to a base class breaks ``perfbench/run.py --trace 1`` -- a run only the
slow benchmark job makes.  A method the simulator itself no longer calls
(``SymmetricFabric.reserve`` on the executor's path) can look dead while
the profile still needs it.  The test reads ``perfbench/layers.py`` and
does not edit it.
"""

from __future__ import annotations

import importlib.util
from importlib import import_module
from pathlib import Path

import pytest

LAYERS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layer_entries():
    """``(layer, module, attribute path)`` of every ``LAYERS`` entry."""
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_FILE)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [
        (layer, module, path)
        for layer, entries in layers.LAYERS.items()
        for module, path in entries
    ]


ENTRIES = _layer_entries()


@pytest.mark.parametrize(
    "layer, module, path", ENTRIES, ids=[f"{module}:{path}" for _, module, path in ENTRIES]
)
def test_layer_entry_point_is_defined_on_its_owner(layer, module, path):
    owner = import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert name in vars(owner), f"layer {layer!r}: {path} is not defined in {module} itself"
