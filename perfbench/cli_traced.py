"""Run the ``allpass`` CLI under the benchmark's tracer.

Usage: ``python3 cli_traced.py SPANS.json <allpass arguments...>``

Behaves like the ``allpass`` executable (same output, same exit code) and
additionally writes the spans it recorded, the time ``import allpass.cli``
took and the detection verification counts to ``SPANS.json`` when it ends.
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import allpass.cli

    import_ms = 1e3 * (time.perf_counter() - t0)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import oracle
    from tracer import Tracer

    spans_path, argv = sys.argv[1], sys.argv[2:]
    with Tracer() as tracer:
        tracer.op_id = 0
        code = allpass.cli.main(argv)
    ok, total = oracle.detection_counts(tracer.captures)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"import_ms": import_ms, "verified": [ok, total], "spans": tracer.to_json()},
            fh,
        )
    sys.exit(code)
