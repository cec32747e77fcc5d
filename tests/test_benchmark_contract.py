"""The names the benchmark harness in perfbench/ calls must keep working.

perfbench/worker.py reads ``RunSpec.spatial``, passes it to
``geometry.k_from_support``, calls ``cli.execute_sweep`` with a worker
count by position, and its tracer wraps named functions of each layer.
These tests fail if any of those is dropped before the harness stops using
it.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from curveflow import cli, geometry
from curveflow.geometry import AngleGrid, SupportProfile

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["ellipse-stepper", "snapshot-dense", "batch"])
def test_worker_setup_only_pass(tmp_path, workload):
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--setup-only", "--out", str(tmp_path / "out"),
         "--result", str(result), "--spawned-at", repr(time.monotonic())],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result.read_text())["setup_s"] > 0.0


def test_tracer_finds_every_name_it_wraps():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import worker; "
            "worker._install_tracer(*worker._import_curveflow())")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_sweep_takes_a_worker_count_by_position(tmp_path):
    specs = [cli.RunSpec(curve=curve, n=32, max_steps=20) for curve in ("circle:1", "ellipse:2,1")]
    assert cli.execute_sweep(specs, tmp_path, 2) == 0
    index = json.loads((tmp_path / "sweep.json").read_text())
    assert [entry["exit"] for entry in index["runs"]] == [0, 0]


def test_spatial_is_fourier_and_read_only():
    spec = cli.RunSpec()
    assert spec.spatial == "fourier"
    assert "spatial" not in spec.to_dict()
    with pytest.raises(TypeError):
        cli.RunSpec(spatial="fourier")
    sp = SupportProfile(AngleGrid(32), [1.0] * 32)
    assert geometry.k_from_support(sp, spec.spatial).k.tolist() == [1.0] * 32
    with pytest.raises(ValueError):
        geometry.k_from_support(sp, "fd4")
