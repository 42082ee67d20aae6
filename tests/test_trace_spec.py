"""The benchmark's tracer resolves every name it wraps and leaves no library reference unwrapped.

`perfbench/run.py --trace` installs `perfbench/tracing.py` around the
library and fails when a name in its SPEC no longer resolves or a module
still holds an unwrapped function.  This runs the same installation in a
fraction of a second, so a renamed or re-imported function fails here too.
"""
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_every_reference():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import families
        import tracing

        import twistrb.cli  # noqa: F401  (every library module the CLI imports is a site)

        tracer = tracing.Tracer()
        try:
            tracer.install(extra_modules=[families])
            assert tracer.unwrapped() == []
        finally:
            tracer.uninstall()
    finally:
        sys.path.remove(str(PERFBENCH))
