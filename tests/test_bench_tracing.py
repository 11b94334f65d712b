"""The traced benchmark run (``bench/run.py --trace 1``) wraps morselat
functions by module and attribute name.  A rename or deletion in morselat
would break that run only when it is started, so every name it wraps is
resolved here.  bench/tracing.py is read as text and executed in a fresh
namespace, which leaves no bytecode under bench/."""

import pathlib
import sys

from morselat import cli  # noqa: F401  (imports every module the tracer wraps)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_namespace() -> dict:
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


def _resolves(module: str, path: str) -> bool:
    mod = sys.modules.get(f"morselat.{module}")
    if mod is None:
        return False
    if "." in path:
        cls_name, attr = path.split(".")
        return attr in vars(getattr(mod, cls_name, object))
    return callable(getattr(mod, path, None))


def test_every_traced_target_resolves():
    tracing = _tracing_namespace()
    spans = {(module, path) for module, path, _ in tracing["SPANS"]}
    counters = set(tracing["COUNTERS"])
    assert not sorted(t for t in spans | counters if not _resolves(*t))
    # a counter is only fed by the span wrapper installed for the same target
    assert counters <= spans
    assert all(callable(fn) for _, fn in sys.modules["morselat.verify"].CHECKS)
