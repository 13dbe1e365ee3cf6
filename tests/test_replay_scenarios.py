"""tools/replay_scenarios.py on one benchmark scenario."""

import subprocess
import sys
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
