#!/usr/bin/env python3
"""levrot benchmark: run one seeded workload and print its metrics as JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a levrot checkout; levrot is imported from ``src/``.
With ``--trace 0`` the last line of stdout carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_call
from scenarios import WORKLOADS, scenario

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 120
SETUP_CODE = ("import sys; import levrot.studio.cli; "
              "from levrot.studio.config import RunConfig; "
              "RunConfig.from_file(sys.argv[1])")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    # one worker thread, BLAS included (see README: why the load uses one worker)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]]
                                                      if env.get("PYTHONPATH") else []))
    return env


def measure_setup(config: Path, env: dict) -> float:
    """Wall time of a fresh interpreter that imports the CLI and loads a config."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
    return elapsed


def import_times(env: dict) -> tuple[float, float]:
    """Median (levrot, scipy) cumulative import times from ``-X importtime``."""
    levrot, scipy = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import levrot.studio.cli"], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"import-time interpreter failed:\n{proc.stderr}")
        entries = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:") or "cumulative" in line:
                continue
            name = parts[2].rstrip()
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            entries.append((depth, name.strip(), int(parts[1])))
        # entries come children first; walking backwards meets parents first
        ancestors: list[str] = []
        lev = sci = 0
        for depth, name, cumulative in reversed(entries):
            del ancestors[depth:]
            is_scipy = name == "scipy" or name.startswith("scipy.")
            if depth == 0 and name.split(".")[0] == "levrot":
                lev += cumulative
            if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for a in ancestors):
                sci += cumulative
            ancestors.append(name)
        levrot.append(lev / 1e6)
        scipy.append(sci / 1e6)
    return statistics.median(levrot), statistics.median(scipy)


class Worker:
    """The scenario process, driven one JSON line at a time."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")], env=env,
                                     cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def request(self, payload: dict, reply: bool = True):
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        if not reply:
            return None
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def write_calls(calls, directory: Path):
    """Config files and output directories of one scenario's calls."""
    directory.mkdir(parents=True)
    wire = []
    for k, call in enumerate(calls):
        config, out = directory / f"c{k}.json", directory / f"o{k}"
        config.write_text(json.dumps(call.doc), encoding="utf-8")
        wire.append([str(config), str(out), call.fmt, call.verb])
    return wire


@dataclass
class Phase:
    plain: list = field(default_factory=list)     # untraced scenario latencies, s
    traced: list = field(default_factory=list)    # traced replays, s
    setup: list = field(default_factory=list)     # set-up interpreter wall times, s
    failed: int = 0
    correct: bool = True


def run_phase(worker, workload, seed, tiny, work, seconds, traced=False, setup=None):
    """Run scenarios 0, 1, ... until their untraced calls add up to ``seconds``
    (at least one).

    Checks run between scenarios, outside the timed calls.  With ``traced``
    every scenario runs a second time, traced, right after its untraced run,
    so the pairs see the same host speed.  ``setup()`` is sampled SETUP_RUNS
    times, spread evenly over the timed phase, because this host's speed drifts
    over tens of seconds.
    """
    phase = Phase()
    i = 0
    while not phase.plain or sum(phase.plain) < seconds:
        while (setup is not None and len(phase.setup) < SETUP_RUNS
               and sum(phase.plain) >= len(phase.setup) * seconds / SETUP_RUNS):
            phase.setup.append(setup())
        calls = scenario(workload, seed, i, tiny)
        directory = work / f"s{i}"
        wire = write_calls(calls, directory)
        reply = worker.request({"op": "run", "scenario": i, "calls": wire})
        phase.plain.append(reply["latency_s"])
        if any(reply["codes"]):
            phase.failed += 1
            print(f"scenario {i} failed: {reply['errors']}", file=sys.stderr)
        else:
            for call, (_, out, _, _) in zip(calls, wire):
                try:
                    check_call(call, Path(out))
                except Exception as exc:  # noqa: BLE001 - any bad output is a failed check
                    phase.correct = False
                    print(f"scenario {i} {call.verb}: check failed: "
                          f"{type(exc).__name__}: {exc}", file=sys.stderr)
        if traced:
            worker.request({"op": "trace", "on": True}, reply=False)
            reply = worker.request({"op": "run", "scenario": i, "calls": wire})
            worker.request({"op": "trace", "on": False}, reply=False)
            phase.traced.append(reply["latency_s"])
            if any(reply["codes"]):
                phase.failed += 1
                print(f"scenario {i} failed traced: {reply['errors']}", file=sys.stderr)
        shutil.rmtree(directory)
        i += 1
    while setup is not None and len(phase.setup) < SETUP_RUNS:
        phase.setup.append(setup())
    return phase


def metric_units(section: str) -> dict[str, str]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in manifest[section]}


def package(values: dict[str, float], section: str) -> dict:
    units = metric_units(section)
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                         f"BENCHMARK.json {section}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run(args) -> dict:
    env = child_env()
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    worker = None
    try:
        setup = None
        if not args.trace:
            first = write_calls(scenario(args.workload, args.seed, 0, args.tiny)[:1],
                                work / "setup")
            setup = functools.partial(measure_setup, Path(first[0][0]), env)
        worker = Worker(env)
        phases = []
        if args.trace:
            # one warm-up scenario, so that first-call costs land in neither pass
            phases.append(run_phase(worker, args.workload, args.seed, args.tiny, work, 0.0))
        main_phase = run_phase(worker, args.workload, args.seed, args.tiny, work,
                               args.seconds, traced=bool(args.trace), setup=setup)
        phases.append(main_phase)
        result = {"correct": all(p.correct for p in phases),
                  "attempted": sum(len(p.plain) + len(p.traced) for p in phases),
                  "failed": sum(p.failed for p in phases)}
        plain, traced = main_phase.plain, main_phase.traced
        spans = BENCH / "results" / f"spans-{args.workload}-seed{args.seed}.json"
        if args.trace:
            spans.parent.mkdir(exist_ok=True)
        final = worker.request({"op": "finish", "scenarios": len(traced),
                                "scenario_s": sum(traced), "spans": str(spans)})
        if not args.trace:
            result["metrics"] = package({
                "setup_s": statistics.median(main_phase.setup),
                "ops_per_s": len(plain) / sum(plain),
                "op_p50_s": statistics.median(plain),
                "peak_rss_mb": final["maxrss_mib"]}, "end_to_end")
            return result
        layers = final["layers"]
        levrot_s, scipy_s = import_times(env)
        layers.update({"setup.import_levrot_s": levrot_s, "setup.import_scipy_s": scipy_s,
                       "trace.overhead_s": (sum(traced) - sum(plain)) / len(traced)})
        result["metrics"] = package(layers, "per_layer")
        return result
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    args.seed %= 1 << 64
    args.tiny = args.size == "tiny"
    if not (SRC / "levrot" / "__init__.py").is_file():
        print(f"error: no levrot sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
