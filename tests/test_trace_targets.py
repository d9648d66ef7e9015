"""The census benchmark's traced mode binds skewcyc names it wraps from outside.

A rename in `src/` that drops one of its targets breaks
`perfbench/run.py --trace 1`; this test fails first.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import skewcyc.cli  # noqa: E402,F401  (the tracer resolves only imported modules)
import skewcyc.invariants  # noqa: E402,F401
import skewcyc.store  # noqa: E402,F401
from perfbench import layers  # noqa: E402


def test_every_trace_target_resolves_and_restores():
    verify = skewcyc.enumeration.verify
    tracer = layers.new_tracer()
    tracer.install()
    try:
        assert skewcyc.enumeration.verify is not verify
    finally:
        tracer.restore()
    assert skewcyc.enumeration.verify is verify
