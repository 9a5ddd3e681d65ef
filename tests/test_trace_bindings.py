"""The benchmark's tracer must still find every layer it times.

``perfbench/tracer.py`` wraps each layer where its caller looks it up, and a
name that a refactor moves or deletes is skipped silently: its per-layer
metric then reads 0.  This test runs the tracer's own binding step against
the package and allows only the one name already known to be gone.  A
second test feeds the tracer's probes real ``ista`` and ``rpca`` results.
"""

import runpy
from pathlib import Path

import numpy as np

from usproc.clutter import rpca
from usproc.sparse import SparseProblem, ista

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# deleted from usproc.sparse; the benchmark still lists it
KNOWN_UNBOUND = {"usproc.sparse.operator_norm"}


def test_every_traced_layer_is_bound():
    tracer = runpy.run_path(str(TRACER))   # compiled from source, nothing written
    with tracer["Tracer"]() as bound:
        pass
    assert set(bound.unbound) <= KNOWN_UNBOUND, bound.unbound


def test_probes_read_the_solvers_results():
    # the tracer reads ista's and rpca's iteration counts from their return
    # tuples: a change to their shapes must fail here, not only in the bench
    tracer = runpy.run_path(str(TRACER))
    a = np.eye(3) + 0.5
    problem = SparseProblem(lambda v: a @ v, lambda r: a.T @ r, np.ones(3), 0.1, 2.5,
                            max_iters=50, real=True)
    info = tracer["_probe_ista"]((problem,), {}, ista(problem))
    assert type(info["iters"]) is int and 1 <= info["iters"] <= 50
    assert type(info["cap_hit"]) is bool
    y = np.random.default_rng(0).standard_normal((12, 6))
    info = tracer["_probe_rpca"]((y, 0.4, 0.2), {}, rpca(y, 0.4, 0.2))
    assert type(info["iters"]) is int and 1 <= info["iters"] <= 500
