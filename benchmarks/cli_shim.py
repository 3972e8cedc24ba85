"""Start one traced ``opertuple`` command: ``cli_shim.py SPANS_OUT ARGS...``.

Behaves like ``python -m opertuple.cli ARGS...`` (same output, same exit
status) with the benchmark's wrappers installed before ``cli.main`` runs. The
import of the package is recorded as the span ``cli.import``; all spans are
written to SPANS_OUT as JSON when the command ends.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from spans import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = perf_counter()
    import opertuple.cli

    tracer.record("cli.import", -1, -1, start, perf_counter())
    tracer.install()
    tracer.active = True
    try:
        return opertuple.cli.main(argv)
    finally:
        tracer.active = False
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
