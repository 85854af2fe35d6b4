"""Traced ``mlk`` process: times ``import mlk``, wraps the layer functions,
runs ``mlk.cli.main(argv)`` under a span and writes the spans as JSON.

    python3 perfbench/child.py SPANS_PATH <mlk arguments...>
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import mlk.cli

    t1 = time.perf_counter()
    from tracing import Tracer, install

    tracer = Tracer()
    tracer.spans.append(["cli.import", t0, t1, -1, {}])
    install(tracer)
    sid = tracer.begin("cli.main")
    try:
        code = mlk.cli.main(sys.argv[2:])
    finally:
        tracer.end(sid)
        with open(sys.argv[1], "w") as fh:
            json.dump(tracer.spans, fh)
    sys.exit(code)
