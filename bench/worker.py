"""The process that runs scenarios: one levrot import, in-process CLI calls.

It reads one JSON request per line on stdin and answers one JSON line on the
original stdout; levrot's own prints go to /dev/null.  Requests:

  {"op": "run", "scenario": i, "calls": [[config, out_dir, fmt, verb], ...]}
      -> {"latency_s": t, "codes": [...], "errors": [...]}
  {"op": "trace", "on": bool}   later runs are traced, or no longer traced
  {"op": "finish", "scenario_s": t, "scenarios": n, "spans": path}
      -> {"maxrss_mib": m, "layers": {...}}   spans go to path; the worker exits
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

from tracing import Tracer


def main() -> int:
    protocol = sys.stdout
    sys.stdout = open(os.devnull, "w", encoding="utf-8")
    from levrot.studio import cli

    tracer = None
    main_call = cli.main
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "trace":
            if tracer is None:
                tracer = Tracer()
            if request["on"]:
                tracer.install()
                main_call = tracer.wrap("studio.cli", cli.main)
            else:
                tracer.restore()
                main_call = cli.main
            continue
        if request["op"] == "finish":
            reply = {"maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            if tracer is not None:
                reply["layers"] = tracer.layer_metrics(request["scenarios"],
                                                       request["scenario_s"])
                tracer.write(Path(request["spans"]))
            protocol.write(json.dumps(reply) + "\n")
            protocol.flush()
            return 0
        if tracer is not None:
            tracer.scenario = request["scenario"]
        codes, errors = [], []
        start = time.perf_counter()
        for config, out, fmt, verb in request["calls"]:
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main_call(["--config", config, "--out", out, "--threads", "1",
                                  "--format", fmt, verb])
            codes.append(code)
            if code != 0:
                errors.append(f"{verb}: {stderr.getvalue().strip()}")
        latency = time.perf_counter() - start
        protocol.write(json.dumps({"latency_s": latency, "codes": codes,
                                   "errors": errors}) + "\n")
        protocol.flush()
    return 1


if __name__ == "__main__":
    sys.exit(main())
