"""The benchmark's span hooks name functions that exist.

``perfbench/spans.py`` wraps package functions by module and attribute name
and lists a target it cannot find as absent instead of failing, so renaming
a hooked function would silently zero its per-layer metrics. Here the file
is read and run as source, without installing its tracer or patching
anything.

Every speed claim also commits a ``BENCH_*.json`` file at the root of the
repository, and each must say what it measured: whether a compiled kernel
ran, the Python version, the core count, the parent commit and the command.
"""

import json
import re
import types
from pathlib import Path

import ridgeline  # noqa: F401  (the tracer resolves hooks after this import)

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def test_every_benchmark_hook_resolves():
    spans = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    targets = [hook[:2] for hook in spans.SPAN_HOOKS] + [spans.STEP_HOOK]
    for mod_name, attr in targets:
        _, fn = spans._resolve(f"ridgeline.{mod_name}", attr)
        assert callable(fn), f"{mod_name}.{attr}"


def test_every_bench_file_records_its_setting():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        bench = json.loads(path.read_text())
        assert isinstance(bench["COMPILED"], bool), path.name
        assert re.fullmatch(r"3\.\d+\.\d+", bench["python"]), path.name
        assert isinstance(bench["cores"], int) and bench["cores"] >= 1, path.name
        assert re.fullmatch(r"[0-9a-f]{40}", bench["parent_commit"]), path.name
        assert "perfbench/run.py" in bench["command"], path.name
