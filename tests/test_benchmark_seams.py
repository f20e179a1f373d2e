"""The benchmark's traced pass wraps layer entry points by name.

``perfbench.layers.install`` looks each one up on its module or class
(``cls.__dict__[attr]`` for methods), so removing or renaming a wrapped
entry point breaks ``perfbench/run.py --trace 1``. Installing and
restoring the timers here makes such a change fail the tier-1 suite
instead of only the traced benchmark.
"""

from perfbench.layers import install
from perfbench.tracing import Tracer

from repro.des.engine import Engine


def test_traced_pass_finds_and_restores_every_entry_point():
    run = Engine.__dict__["run"]
    tracer = Tracer()
    try:
        install(tracer)
        assert Engine.__dict__["run"] is not run
    finally:
        tracer.restore()
    assert Engine.__dict__["run"] is run
