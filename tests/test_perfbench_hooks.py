"""The benchmark's tracer must still find every tasksim function it wraps.

perfbench/tracing.py rebinds named tasksim functions to time them.  A
refactor that deletes or renames one of those names breaks only traced
benchmark runs, so this test installs and uninstalls the tracer here.
"""

from pathlib import Path

import tasksim
from tasksim import cli, empirical

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = (cli.main, empirical.run_replications, tasksim.ts)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.main is not originals[0]
        assert empirical.run_replications is not originals[1]
        assert tasksim.ts is not originals[2]
    finally:
        tracer.uninstall()
    assert (cli.main, empirical.run_replications, tasksim.ts) == originals
