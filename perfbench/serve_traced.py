"""Start ``repro serve`` with the benchmark's tracer installed.

Usage: ``python perfbench/serve_traced.py TRACE_DIR [serve options]``.
The wrappers go in first, then the normal ``serve`` entry point runs;
when the server exits (SIGTERM drains it), the process's spans are
written to ``TRACE_DIR/server-<pid>.jsonl``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import targets  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def main(argv) -> int:
    tracer = Tracer(Path(argv[0]))
    tracer.install(targets())
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *argv[1:]])
    finally:
        tracer.flush("server")
        tracer.uninstall()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
