"""The benchmark's tracer must still find every layer it times.

``perfbench/tracer.py`` wraps each layer where its caller looks it up, and a
name that a refactor moves or deletes is skipped silently: its per-layer
metric then reads 0.  This test runs the tracer's own binding step against
the package and allows only the one name already known to be gone.
"""

import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# deleted from usproc.sparse; the benchmark still lists it
KNOWN_UNBOUND = {"usproc.sparse.operator_norm"}


def test_every_traced_layer_is_bound():
    tracer = runpy.run_path(str(TRACER))   # compiled from source, nothing written
    with tracer["Tracer"]() as bound:
        pass
    assert set(bound.unbound) <= KNOWN_UNBOUND, bound.unbound
