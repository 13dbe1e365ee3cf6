"""tools/replay_scenarios.py on one benchmark scenario."""

import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "replay_scenarios.py"


def replay(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True,
                          text=True, timeout=300)


def test_replay_counts_scenarios_and_calls():
    proc = replay("coupling_tables", "--seeds", "1", "--first", "0", "--last", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["coupling_tables: 1 scenarios, 9 calls, 0 failed"]


def test_replay_rejects_unknown_workload():
    proc = replay("no_such_workload", "--seeds", "1", "--first", "0", "--last", "0")
    assert proc.returncode == 2
    assert "unknown workload 'no_such_workload'" in proc.stderr


def test_replay_counts_a_failed_check_as_a_failed_call(monkeypatch, capsys):
    # a stand-in for bench/checks.py whose check rejects the first call only
    checked = []

    def check_call(call, out):
        checked.append(call.verb)
        if len(checked) == 1:
            raise AssertionError("planted")

    monkeypatch.setitem(sys.modules, "checks", types.SimpleNamespace(check_call=check_call))
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # main sets them; undone after the test
    spec = importlib.util.spec_from_file_location("replay_scenarios", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    code = tool.main(["coupling_tables", "--seeds", "1", "--first", "0", "--last", "0"])
    assert code == 1 and len(checked) == 9
    assert capsys.readouterr().out.splitlines() == [
        f"seed 1 scenario 0 call 0 ({checked[0]}) check failed: AssertionError: planted",
        "coupling_tables: 1 scenarios, 9 calls, 1 failed"]
