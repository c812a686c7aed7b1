"""The benchmark's per-layer tracer still finds and rebinds its targets.

``benchmarks/tracer.py`` wraps fractree functions by name from outside the
package, so renaming or deleting a traced function breaks it; these tests
load it by path, as the benchmark does, without changing it.
"""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

from fractree import cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracer = _load_tracer()
    for module_name, functions in tracer.TARGETS.items():
        module = importlib.import_module(f"fractree.{module_name}")
        for fn_name in functions:
            assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


def test_install_traces_cli_runs_and_uninstall_restores():
    tracer = _load_tracer()
    before = tracer._references()
    t = tracer.Tracer()
    t.install()
    try:
        for argv in (["invariants", "census", "wheel", "4", "2", "--stage", "2"],
                     ["count", "cycle", "3", "2", "3", "--method", "blocks"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
    finally:
        t.uninstall()
    assert tracer._references() == before
    assert t.stats["cli.main"][0] == 2
    assert t.stats["construct.build"][0] == 2
    assert t.stats["spanning.tau_blocks"][0] == 1
