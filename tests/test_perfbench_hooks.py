"""The benchmark's tracer must still find every tasksim function it wraps.

perfbench/tracing.py rebinds named tasksim functions to time them.  A
refactor that deletes or renames one of those names breaks only traced
benchmark runs, so these tests install and uninstall the tracer here and
run one small traced op.
"""

from pathlib import Path

import pytest

from tasksim import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def bound(owner, attr):
    """What ``owner.attr`` is bound to: a class's own entry, or a module's attribute."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_and_uninstalls(tracing):
    targets = [t for layer in tracing._layers().values() for t in layer]
    assert len(targets) == 27
    originals = [bound(*t) for t in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = [t for t, orig in zip(targets, originals) if bound(*t) is not orig]
    finally:
        tracer.uninstall()
    assert patched == targets
    assert all(bound(*t) is orig for t, orig in zip(targets, originals))


def test_traced_op_nests_its_spans_and_counts_tree_leaves(tracing, tmp_path):
    argvs = [
        ["analytic-matrix", "--dists", "xor", "rxor(30)", "--out-dir", str(tmp_path / "a")],
        ["empirical-matrix", "--dists", "xor", "rxor(30)", "--depth", "2", "--n-train", "200",
         "--n-eval", "200", "--replications", "2", "--seed", "1", "--workers", "1",
         "--out-dir", str(tmp_path / "e")],
    ]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        codes = tracer.run_op(0, lambda: [cli.main(argv) for argv in argvs])
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    assert tracer.problems() == []
    assert tracer.counts["tree_leaves"] > 0
