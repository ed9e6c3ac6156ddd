"""Run one plengths CLI command through `plengths.cli.main(argv)`, traced.

Usage: python3 bench/cli_child.py <plengths arguments...>

Imports plengths (timed), installs the benchmark's tracer, runs the command
with its standard output captured, and prints one JSON object: exit code,
captured output, import time and the trace.
"""

import contextlib
import importlib
import io
import json
import sys
import time

from tracer import Tracer


def main() -> None:
    t0 = time.perf_counter()
    cli = importlib.import_module("plengths.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(sys.argv[1:])
    json.dump(
        {"rc": rc, "out": buf.getvalue(), "import_s": import_s, "trace": tracer.export()},
        sys.stdout,
    )


if __name__ == "__main__":
    main()
