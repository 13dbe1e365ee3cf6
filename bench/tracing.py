"""Spans around levrot's public functions, recorded from the benchmark's side.

Each wrapped name is patched where its caller looks it up (``cli.build_body``,
``cli.write_table``, ``trap.floquet_stability``, ...), so levrot itself is
not edited.  Spans stay in memory as [name, scenario, parent, start, end] and
are written out once, when the worker finishes.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.scenario = -1
        self._undo: list[tuple] = []

    def wrap(self, name, fn, after=None):
        """fn inside a span; ``name`` may be a callable of (args, kwargs)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            record = [label, self.scenario, self.stack[-1] if self.stack else -1,
                      time.perf_counter(), 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, key, fn, on_raise=False):
        """fn with a count per call, or per exception with ``on_raise``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not on_raise:
                self.counts[key] += 1
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.counts[key] += 1
                raise

        return wrapper

    def patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def install(self):
        """Patch every traced entry point of levrot."""
        from levrot import coupling, nv_spin, quantum_sim, rotor_dynamics, trap
        from levrot.studio import cli
        from levrot.studio.config import RunConfig

        def arg(args, kwargs, i, key, default=None):
            return args[i] if len(args) > i else kwargs.get(key, default)

        def rows_and_bytes(args, kwargs, path):
            self.counts["studio.reports.write_table.rows"] += len(arg(args, kwargs, 2, "rows"))
            self.counts["studio.reports.write_table.bytes"] += Path(path).stat().st_size

        def drive_periods(args, kwargs, _):
            duration, tc = arg(args, kwargs, 3, "duration"), arg(args, kwargs, 1, "trap")
            self.counts["rotor_dynamics.drive_periods"] += (
                duration * tc.drive_frequency / (2.0 * math.pi))

        def map_cells(args, kwargs, _):
            self.counts["coupling.map_cells"] += (len(arg(args, kwargs, 1, "B_values"))
                                                  * len(arg(args, kwargs, 2, "psi_values")))

        def dissipative(args, kwargs):
            ch = arg(args, kwargs, 3, "channels")
            return ch is not None and any((ch.spin_relaxation_rate, ch.pure_dephasing_rate,
                                           ch.phonon_decoherence_rate))

        def evolve_name(args, kwargs):
            return ("quantum_sim.evolve_dissipative" if dissipative(args, kwargs)
                    else "quantum_sim.evolve_unitary")

        def evolve_counts(args, kwargs, _):
            self.counts["quantum_sim.evolve.samples"] += len(arg(args, kwargs, 2, "times"))
            if dissipative(args, kwargs):
                dim = arg(args, kwargs, 0, "model").dim
                mib = (dim * dim) ** 2 * 16 / 2 ** 20  # dense complex Liouvillian
                key = "quantum_sim.liouvillian_mb"
                self.peaks[key] = max(self.peaks[key], mib)

        w = self.wrap
        self.patch(RunConfig, "from_file",
                   classmethod(w("studio.config", RunConfig.from_file.__func__)))
        self.patch(cli, "build_body", w("geometry.build_body", cli.build_body))
        self.patch(cli, "write_table",
                   w("studio.reports.write_table", cli.write_table, rows_and_bytes))
        self.patch(cli, "map_ordered", w("studio.sweep.map_ordered", cli.map_ordered))
        self.patch(trap, "floquet_stability",
                   w("trap.floquet_stability", trap.floquet_stability))
        for fn in ("simulate_linear", "simulate_nonlinear"):
            self.patch(rotor_dynamics, fn, w(f"rotor_dynamics.{fn}",
                                             getattr(rotor_dynamics, fn), drive_periods))
        self.patch(rotor_dynamics, "extract_secular_frequency",
                   w("rotor_dynamics.extract_secular_frequency",
                     rotor_dynamics.extract_secular_frequency))
        solve = w("nv_spin.resonance_solve", nv_spin.resonance_solve)
        self.patch(nv_spin, "resonance_solve", solve)
        self.patch(coupling, "resonance_solve", solve)
        self.patch(nv_spin, "mixed_spectrum",
                   self.counter("nv_spin.mixed_spectrum.calls", nv_spin.mixed_spectrum))
        self.patch(coupling, "coupling_map_rows",
                   w("coupling.coupling_map_rows", coupling.coupling_map_rows, map_cells))
        for fn in ("coupling_vs_rabi", "resonance_curve"):
            self.patch(coupling, fn, w(f"coupling.{fn}", getattr(coupling, fn)))
        self.patch(quantum_sim, "build_model",
                   w("quantum_sim.build_model", quantum_sim.build_model))
        self.patch(quantum_sim, "evolve", w(evolve_name, quantum_sim.evolve, evolve_counts))
        self.patch(quantum_sim, "exchange_frequency",
                   w("quantum_sim.exchange_frequency", quantum_sim.exchange_frequency))
        if "curve_fit" in quantum_sim.__dict__:
            self.patch(quantum_sim, "curve_fit",
                       self.counter("quantum_sim.exchange_frequency.fit_failures",
                                    quantum_sim.curve_fit, on_raise=True))

    # -- reduction --------------------------------------------------------

    def layer_metrics(self, n_scenarios: int, scenario_time: float) -> dict[str, float]:
        """Per-scenario totals of span time, calls and counts."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        for name, _, parent, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, _, _, start, end) in enumerate(self.spans):
            self_time[name] += end - start - child[i]
        n = max(1, n_scenarios)
        out = {}
        for name in SPAN_METRICS:
            out[f"{name}.s"] = total[name] / n
        for name in CALL_METRICS:
            out[f"{name}.calls"] = calls[name] / n
        for name in SELF_METRICS:
            out[f"{name}.self_s"] = self_time[name] / n
        for key in COUNT_METRICS:
            out[key] = self.counts[key] / n
        for key in PEAK_METRICS:
            out[key] = self.peaks[key]
        layer_time = total["studio.cli"] - self_time["studio.cli"]
        out["trace.coverage"] = layer_time / scenario_time if scenario_time > 0 else 0.0
        return out

    def write(self, path: Path):
        keys = ("name", "scenario", "parent", "start", "end")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n",
                        encoding="utf-8")


SPAN_METRICS = (
    "trap.floquet_stability", "rotor_dynamics.simulate_linear",
    "rotor_dynamics.simulate_nonlinear", "rotor_dynamics.extract_secular_frequency",
    "studio.reports.write_table", "studio.config", "geometry.build_body",
    "nv_spin.resonance_solve", "coupling.coupling_map_rows", "coupling.coupling_vs_rabi",
    "coupling.resonance_curve", "quantum_sim.evolve_unitary",
    "quantum_sim.evolve_dissipative", "quantum_sim.build_model",
    "quantum_sim.exchange_frequency")
CALL_METRICS = ("trap.floquet_stability", "geometry.build_body", "nv_spin.resonance_solve")
SELF_METRICS = ("studio.sweep.map_ordered", "studio.cli")
COUNT_METRICS = (
    "rotor_dynamics.drive_periods", "studio.reports.write_table.rows",
    "studio.reports.write_table.bytes", "nv_spin.mixed_spectrum.calls",
    "coupling.map_cells", "quantum_sim.evolve.samples",
    "quantum_sim.exchange_frequency.fit_failures")
PEAK_METRICS = ("quantum_sim.liouvillian_mb",)
