"""Replay benchmark scenarios in one process and report every call that fails.

    python tools/replay_scenarios.py WORKLOAD --seeds A,B --first I --last J

Run from a levrot checkout: the package is imported from ``src/``, and the
scenario generator and output checks from ``bench/scenarios.py`` and
``bench/checks.py``, all next to this file's ``tools/`` directory; nothing
under ``bench/`` is written.  Scenarios I to J (inclusive) of each seed run
call by call through ``levrot.studio.cli.main``, with one BLAS thread, as the
benchmark's worker runs them, but without its clock.  Every call that exits
0 then has its output files checked by ``checks.check_call``, as the
benchmark checks them.  A call fails if it exits non-zero or its check
raises; it is printed with its seed, scenario, call index and verb, and its
stderr or the check's message.  The last line counts scenarios, calls and
failed calls; the exit code is 1 if any call failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", required=True,
                        type=lambda text: [int(s) for s in text.split(",")],
                        help="comma-separated seeds")
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--last", type=int, required=True)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads, as in the benchmark's worker
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from checks import check_call
    from scenarios import WORKLOADS, scenario
    from levrot.studio import cli

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    scenarios = calls = failed = 0
    for seed in args.seeds:
        for index in range(args.first, args.last + 1):
            scenarios += 1
            # a new directory per scenario, as in the benchmark: files are
            # written once and deleted, never rewritten in place
            with tempfile.TemporaryDirectory(prefix="levrot_replay_") as tmp:
                for k, call in enumerate(scenario(args.workload, seed, index)):
                    calls += 1
                    config, out = Path(tmp) / f"c{k}.json", Path(tmp) / f"o{k}"
                    config.write_text(json.dumps(call.doc), encoding="utf-8")
                    stderr = io.StringIO()
                    with (contextlib.redirect_stdout(io.StringIO()),
                          contextlib.redirect_stderr(stderr)):
                        code = cli.main(["--config", str(config), "--out", str(out),
                                         "--threads", "1", "--format", call.fmt, call.verb])
                    where = f"seed {seed} scenario {index} call {k} ({call.verb})"
                    if code != 0:
                        failed += 1
                        print(f"{where} exit {code}: {stderr.getvalue().strip()}",
                              flush=True)
                        continue
                    try:
                        check_call(call, out)
                    except Exception as exc:  # noqa: BLE001 - any bad output fails the call
                        failed += 1
                        print(f"{where} check failed: {type(exc).__name__}: {exc}",
                              flush=True)
    print(f"{args.workload}: {scenarios} scenarios, {calls} calls, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
