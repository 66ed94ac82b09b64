"""The benchmark's span hooks name functions that exist.

``perfbench/spans.py`` wraps package functions by module and attribute name
and lists a target it cannot find as absent instead of failing, so renaming
a hooked function would silently zero its per-layer metrics. Here the file
is read and run as source, without installing its tracer or patching
anything.
"""

import types
from pathlib import Path

import ridgeline  # noqa: F401  (the tracer resolves hooks after this import)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_benchmark_hook_resolves():
    spans = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    targets = [hook[:2] for hook in spans.SPAN_HOOKS] + [spans.STEP_HOOK]
    for mod_name, attr in targets:
        _, fn = spans._resolve(f"ridgeline.{mod_name}", attr)
        assert callable(fn), f"{mod_name}.{attr}"
