"""The benchmark's tracer must find every name it wraps.

``benchmark/spans.py`` times difftrack by replacing functions at the names
their callers look them up by. A name that a cleanup removes or moves
would make ``benchmark/run.py --trace 1`` fail, so every one of them is
checked here.
"""

import importlib.util
import os

from difftrack import harness

SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark", "spans.py"
)


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.difftrack_targets(harness)
    assert targets
    for owner, attr, name, _ in targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr}, traced as {name}, is gone"
