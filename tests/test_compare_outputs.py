"""tools/compare_outputs.py on two small output directories."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[1] / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CSV = ("B_T,psi_rad,lambda_tilde_hz,resonance_flag\n"
       "0.0,0.01,0.0,false\n"
       "0.1,0.01,{cell},true\n"
       "# provenance: levrot=0.1.0 config_sha256={hash}\n")


def write_outputs(root: Path, cell: str, hash_: str):
    run = root / "default" / "csv" / "fig2-map"
    (run / "out").mkdir(parents=True)
    (run / "out" / "fig2_map.csv").write_text(CSV.format(cell=cell, hash=hash_))
    (run / "out" / "fig2_map.json").write_text(json.dumps(
        {"columns": ["B_T", "flag"], "rows": [[0.1, True], [0.2, None]]}))
    (run / "run.log").write_text("exit code: 0\nstdout:\nfig2-map: 2 map points\n")


def test_identical_outputs_up_to_the_config_hash(tool, tmp_path):
    write_outputs(tmp_path / "a", "1234.5", "aa" * 32)
    write_outputs(tmp_path / "b", "1234.5", "bb" * 32)
    lines, same = tool.compare_dirs(tmp_path / "a", tmp_path / "b")
    assert same
    assert len(lines) == 3 and all(line.startswith("identical: ") for line in lines)


def test_one_cell_differs(tool, tmp_path):
    write_outputs(tmp_path / "a", "1024.0", "aa" * 32)
    write_outputs(tmp_path / "b", "1025.0", "aa" * 32)
    lines, same = tool.compare_dirs(tmp_path / "a", tmp_path / "b")
    assert not same
    different = [line for line in lines if line.startswith("DIFFERENT")]
    assert different == ["DIFFERENT: default/csv/fig2-map/out/fig2_map.csv: "
                         "lambda_tilde_hz: 1 cells, max relative change 0.000976"]


def test_missing_file_and_changed_log_differ(tool, tmp_path):
    write_outputs(tmp_path / "a", "1.0", "aa" * 32)
    write_outputs(tmp_path / "b", "1.0", "aa" * 32)
    (tmp_path / "b" / "default" / "csv" / "fig2-map" / "out" / "fig2_map.json").unlink()
    (tmp_path / "b" / "default" / "csv" / "fig2-map" / "run.log").write_text("exit code: 1\n")
    lines, same = tool.compare_dirs(tmp_path / "a", tmp_path / "b")
    assert not same
    assert "only in A: default/csv/fig2-map/out/fig2_map.json" in lines
    assert "DIFFERENT: default/csv/fig2-map/run.log: bytes differ" in lines
