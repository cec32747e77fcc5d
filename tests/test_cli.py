import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curveflow import cli, flow, geometry
from curveflow.cli import RunSpec, build_initial, emit_timeseries, main
from curveflow.errors import DegenerateProfileError, NotClosedError
from curveflow.flow import FlowConfig, run
from curveflow.geometry import AngleGrid, SupportProfile
from curveflow.oracle import circle_profile
from curveflow.speed_law import power_law


def run_main(args):
    return main(args)


def read_series(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    return header, rows


def test_run_circle_end_to_end(tmp_path, capsys):
    out = tmp_path / "circle"
    code = run_main(["run", "--law", "power:1", "--curve", "circle:1",
                     "--n", "64", "--area-floor", "1e-3", "--cadence", "400",
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "monitor" in captured.out and "pass" in captured.out

    header, rows = read_series(out / "series.csv")
    assert header == list(cli.SERIES_COLUMNS)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stop_reason"] == "area-floor"
    assert summary["omega"]["omega_lo"] <= 0.5 <= summary["omega"]["omega_hi"]
    assert len(rows) == len(summary["snapshots"])
    snaps = sorted(out.glob("snap_*.csv"))
    assert len(snaps) == len(rows)

    # re-parsed series values are bit-equal to the JSON copies
    for row, snap in zip(rows, summary["snapshots"]):
        for value, key in zip(row, cli.SERIES_COLUMNS):
            assert value == snap[key]

    # snapshot files carry the t/n header and the five columns
    first = snaps[0].read_text().splitlines()
    assert first[0].startswith("# t=") and first[0].endswith("n=64")
    assert first[1] == "theta,k,h,x,y"
    assert len(first) == 2 + 64


def test_run_determinism_and_echo_closure(tmp_path):
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    args = ["run", "--law", "power:1", "--curve", "fourier:2:0.05,3:0.02",
            "--n", "64", "--area-floor", "1e-2", "--seed", "7"]
    assert run_main(args + ["--out", str(out1)]) == 0
    assert run_main(args + ["--out", str(out2)]) == 0
    bytes1 = (out1 / "series.csv").read_bytes()
    assert bytes1 == (out2 / "series.csv").read_bytes()

    # feeding the config echo back reproduces the run byte for byte; keys
    # that older versions wrote (the retired "dealias", "spatial" and "cfl")
    # are accepted at the one value every run now uses
    echo = json.loads((out1 / "summary.json").read_text())["config"]
    assert "spatial" not in echo and "cfl" not in echo
    spec = RunSpec.from_dict(dict(echo, dealias=False, spatial="fourier", cfl=0.4))
    assert cli.execute_run(spec, out3) == 0
    assert bytes1 == (out3 / "series.csv").read_bytes()


def test_echo_with_an_unknown_key_is_rejected():
    # a misspelt field must not rerun silently at that field's default
    with pytest.raises(ValueError, match="cadance"):
        RunSpec.from_dict({"cadance": 5, "law": "power:2"})


@pytest.mark.parametrize("retired", [{"spatial": "fd4"}, {"dealias": True}, {"cfl": 0.2}])
def test_echo_with_a_retired_option_changed_is_rejected(retired):
    # such an echo describes a run that can no longer be reproduced
    with pytest.raises(ValueError, match=next(iter(retired))):
        RunSpec.from_dict(dict(RunSpec().to_dict(), **retired))


def test_run_ellipse_monotone_iso(tmp_path):
    out = tmp_path / "ell"
    code = run_main(["run", "--law", "power:1", "--curve", "ellipse:2,1",
                     "--n", "64", "--area-floor", "1e-2", "--cadence", "200",
                     "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    ratios = [s["iso_ratio"] for s in summary["snapshots"]]
    assert all(b <= a * (1 + 1e-8) for a, b in zip(ratios, ratios[1:]))
    monitors = {m["name"]: m for m in summary["monitors"]}
    assert monitors["iso-ratio-monotone"]["status"] == "pass"


def test_check_law_exit_codes(capsys):
    assert run_main(["check-law", "--law", "power:2", "--range", "0.1,100"]) == 0
    out = capsys.readouterr().out
    assert "H1" in out and "ok" in out
    # p = 0.5 has G' < 0: H1 fails, exit reflects it
    assert run_main(["check-law", "--law", "power:0.5", "--range", "0.1,100"]) == 1
    out = capsys.readouterr().out
    assert "VIOLATED" in out


def test_containment_subcommand(tmp_path, capsys):
    out = tmp_path / "pair"
    code = run_main(["containment", "--law", "power:1", "--outer", "circle:2",
                     "--inner", "circle:1", "--n", "64", "--area-floor", "1e-2",
                     "--cadence", "200", "--out", str(out)])
    assert code == 0
    assert "containment: ok" in capsys.readouterr().out
    doc = json.loads((out / "containment.json").read_text())
    assert doc["all_ok"] is True
    lines = (out / "containment.csv").read_text().strip().splitlines()
    assert lines[0] == "t,min_gap,ok"
    t, gap, ok = lines[-1].split(",")
    exact = math.sqrt(4.0 - 2.0 * float(t)) - math.sqrt(1.0 - 2.0 * float(t))
    assert float(gap) == pytest.approx(exact, abs=1e-6)
    assert ok == "1"


@pytest.mark.parametrize("args, stop_reason", [
    # a fourier outer curve is a support profile, passed on as it is
    (["--outer", "fourier:2:0.02,3:0.01", "--inner", "circle:0.5"], "area-floor"),
    # the inner circle reaches k = 1.5 long before the area floor
    (["--outer", "circle:2", "--inner", "circle:1", "--k-cap", "1.5"], "curvature-cap"),
], ids=["fourier-outer", "k-cap"])
def test_containment_subcommand_stops(tmp_path, args, stop_reason):
    out = tmp_path / "pair"
    assert run_main(["containment", "--n", "64", "--out", str(out)] + args) == 0
    doc = json.loads((out / "containment.json").read_text())
    assert doc["stop_reason"] == stop_reason
    assert doc["all_ok"] is True


def test_containment_k_cap_must_exceed_both_curves(tmp_path):
    # 0.7 is above the outer circle's k = 0.5 but not the inner circle's k = 1
    out = tmp_path / "pair"
    assert run_main(["containment", "--outer", "circle:2", "--inner", "circle:1",
                     "--k-cap", "0.7", "--n", "64", "--out", str(out)]) == 2
    assert not out.exists()


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "sweep"
    code = run_main(["sweep", "--law", "power:1", "--law", "power:2",
                     "--curve", "circle:1", "--n", "64", "--area-floor", "1e-2",
                     "--cadence", "400", "--out", str(out)])
    assert code == 0
    index = json.loads((out / "sweep.json").read_text())
    assert len(index["runs"]) == 2
    for entry in index["runs"]:
        assert entry["exit"] == 0
        assert (out / entry["name"] / "series.csv").exists()


def test_sweep_prints_each_member_in_spec_order(tmp_path, capsys):
    flags = ["--curve", "circle:1", "--n", "64", "--area-floor", "1e-2", "--cadence", "400"]
    laws = ("power:1", "power:2")
    printed = []
    for out in ("a", "b"):
        assert run_main(["sweep", "--law", laws[0], "--law", laws[1], *flags,
                         "--out", str(tmp_path / out)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    # each member's monitor table whole, in spec order, then one exit line per member
    members = []
    for law in laws:
        spec = RunSpec(law=law, curve="circle:1", n=64, area_floor=1e-2, cadence=400)
        assert cli.execute_run(spec, tmp_path / law.replace(":", "")) == 0
        members.append(capsys.readouterr().out)
    index = json.loads((tmp_path / "a" / "sweep.json").read_text())
    exits = "".join(f"{entry['name']}: exit 0\n" for entry in index["runs"])
    assert printed[0] == "".join(members) + exits


@pytest.mark.parametrize("bad_entry", [
    ["--curve", "circle:1", "--curve", "bogus:1"],
    # k_cap = 5 is above k_max(0) = 1 of the first curve but not the 10 of the second
    ["--curve", "circle:1", "--curve", "circle:0.1", "--k-cap", "5"],
], ids=["unknown-curve", "k-cap-below-k-max"])
def test_sweep_rejects_bad_entry_before_any_run(tmp_path, bad_entry):
    out = tmp_path / "sweep"
    code = run_main(["sweep", *bad_entry,
                     "--n", "64", "--area-floor", "1e-1", "--out", str(out)])
    assert code == 2
    assert not list(out.glob("run_*"))
    assert not (out / "sweep.json").exists()


def test_degenerate_snapshot_is_a_stop_not_a_crash(tmp_path, monkeypatch):
    summarize = geometry.summarize
    # a snapshot whose curve does not close has lost convexity
    for error, stop_reason in ((DegenerateProfileError, flow.STOP_DEGENERATE),
                               (NotClosedError, flow.STOP_CONVEXITY_LOSS)):
        calls = []

        def fail_third(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise error("forced")
            return summarize(*args, **kwargs)

        monkeypatch.setattr(geometry, "summarize", fail_third)
        out = tmp_path / error.__name__
        spec = RunSpec(curve="circle:1", n=64, area_floor=1e-2, cadence=5)
        assert cli.execute_run(spec, out) == cli.EXIT_RUNTIME
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == stop_reason
        assert summary["steps"]["count"] == 10
        # the state whose snapshot failed is not summarized a second time
        assert len(calls) == 3
        # the snapshots before the failing one are kept, in order
        times = [s["t"] for s in summary["snapshots"]]
        assert len(times) >= 2 and times[0] == 0.0 and times[1] > 0.0
        assert times == sorted(times)


@pytest.mark.parametrize("args, expected", [
    # area pi R^2 overflows: the initial snapshot is degenerate
    (["run", "--curve", "circle:1.3407807929942596e+154"], 3),
    # k^2 Phi'(k) underflows to 0: no finite step
    (["run", "--curve", "circle:6.748370691814794e+161"], 3),
    # h = R overflows in the Fourier support solve
    (["run", "--curve", "circle:5.617791046444737e+306"], 3),
    # Phi'(k) overflows; the step halving used to loop forever on dt = 0
    (["containment", "--law", "power:1.4571529819837308e+16",
      "--outer", "circle:0.05", "--inner", "circle:0.01"], 3),
    # p = 6 shrinks R = 1e-30 to a point by t = R^7 / 7: Phi = k^6 is about
    # 1e180, so the gradient estimate's Phi^2 would overflow to an inf bound
    # and a NaN margin, which fails, had it not scaled Phi by a power of two;
    # snapshots about 6e-213 apart are judged by the evolution identities
    # through flux integrals of that scale
    (["run", "--law", "power:6", "--curve", "circle:1e-30", "--scheme", "support",
      "--cadence", "5"], 0),
    # a member run that fails at run time is recorded, not lost
    (["sweep", "--curve", "circle:1", "--curve", "circle:1.3407807929942596e+154"], 3),
], ids=["area-overflow", "cfl-underflow", "support-overflow", "law-overflow",
        "stencil-underflow", "sweep-member"])
def test_unrepresentable_inputs_end_with_an_exit_code(tmp_path, args, expected):
    out = tmp_path / "extreme"
    with np.errstate(all="ignore"):
        code = run_main(args + ["--n", "32", "--max-steps", "20", "--out", str(out)])
    assert code == expected
    if args[0] == "sweep":
        index = json.loads((out / "sweep.json").read_text())
        assert [run["exit"] for run in index["runs"]] == [0, 3]
        assert "area inf" in index["runs"][1]["error"]


def test_coarse_cadence_passes_the_evolution_identities(tmp_path):
    # 682 steps at the default cadence of 500 give three snapshots; judged
    # over such long intervals, the identities must still hold
    assert run_main(["run", "--curve", "ellipse:2,1", "--n", "64", "--area-floor", "0.5",
                     "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["snapshots"]) == 3
    monitors = {m["name"]: m for m in summary["monitors"]}
    assert monitors["evolution-identities"]["extras"]["worst_mismatch"] < 1e-5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    # G = x^2 overflows on the upper probes
    ["check-law", "--law", "power:3", "--range", "1e-200,1e200"],
    # the law's probes and the member's area overflow
    ["sweep", "--curve", "circle:1", "--curve", "circle:1.3407807929942596e+154",
     "--n", "64"],
], ids=["check-law", "sweep"])
def test_overflowing_probes_exit_3_without_warnings(tmp_path, args):
    out = [] if args[0] == "check-law" else ["--out", str(tmp_path / "sweep")]
    assert run_main(args + out) == 3


@pytest.mark.filterwarnings("error")
def test_gradient_estimate_of_a_phi_whose_square_overflows(tmp_path):
    # Phi is about 1e180 on this circle: Phi^2 is beyond the float range
    assert run_main(["run", "--law", "power:6", "--curve", "circle:1e-30", "--scheme",
                     "support", "--cadence", "5", "--n", "32", "--max-steps", "20",
                     "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    grad = {m["name"]: m for m in summary["monitors"]}["gradient-estimate"]
    assert grad["status"] == "pass"
    # strict JSON writes a non-finite margin as null
    assert grad["worst_margin"] is not None and grad["worst_margin"] >= 0.0


def test_a_failed_monitor_exits_1_and_still_writes(tmp_path, monkeypatch):
    # a 2% error in the stepper's right-hand side breaks the evolution identities
    rhs = flow._rhs
    monkeypatch.setattr(flow, "_rhs", lambda *args: 1.02 * rhs(*args))
    spec = RunSpec(curve="ellipse:2,1", n=64, area_floor=0.5)
    assert cli.execute_run(spec, tmp_path) == cli.EXIT_MONITOR_FAIL
    summary = json.loads((tmp_path / "summary.json").read_text())
    statuses = {m["name"]: m["status"] for m in summary["monitors"]}
    assert statuses["evolution-identities"] == "fail"


@pytest.mark.parametrize("args", [
    # k^2 Phi'(k) spans a factor 8^5 over the ellipse, so a full ETDRK4 step
    # leaves most of the diffusion in N; without error control the evolution
    # identities failed at 1.33% against their 1% bound
    ["--law", "power:4", "--curve", "ellipse:2,1"],
    # k spans 0.60 - 3.51 and its spectrum still reaches the Nyquist mode;
    # without error control the first step moved the closure residual past
    # the snapshot gate and the run stopped at convexity-loss
    ["--law", "power:2", "--curve", "fourier:10:-0.0011,11:0.0024,4:0.0239",
     "--n", "128", "--area-floor", "0.65"],
], ids=["p4-ellipse", "sharp-fourier"])
def test_error_control_keeps_stiff_runs_accurate(tmp_path, args):
    assert run_main(["run"] + args + ["--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stop_reason"] == "area-floor"
    assert summary["steps"]["rejected"] >= 1  # the estimate did halve the step


def test_sweep_builds_each_entry_once(tmp_path, monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec.curve)
        return build_initial(spec)

    monkeypatch.setattr(cli, "build_initial", counted)
    assert run_main(["sweep", "--curve", "circle:1", "--curve", "circle:2",
                     "--n", "64", "--area-floor", "0.5",
                     "--out", str(tmp_path / "sweep")]) == 0
    assert calls == ["circle:1", "circle:2"]


def test_usage_errors():
    assert run_main(["run", "--no-such-flag"]) == 2
    assert run_main(["run", "--curve", "heptagon:3", "--n", "64"]) == 2
    assert run_main(["run", "--law", "mystery:1", "--n", "64"]) == 2
    assert run_main(["run", "--n", "63"]) == 2
    # fourier amplitudes that break convexity are a configuration error
    assert run_main(["run", "--curve", "fourier:5:0.2", "--n", "64"]) == 2


def test_unwritable_output_is_runtime_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = run_main(["run", "--law", "power:1", "--curve", "circle:1",
                     "--n", "64", "--area-floor", "1e-1",
                     "--out", str(blocker / "nested")])
    assert code == 3


def test_emit_timeseries_rejects_empty(tmp_path):
    g = AngleGrid(64)
    config = FlowConfig(law=power_law(1), initial=circle_profile(1.0, g))
    traj = run(FlowConfig(law=power_law(1), initial=circle_profile(1.0, g),
                          max_steps=1))
    traj.snapshots = []
    with pytest.raises(ValueError):
        emit_timeseries(traj, tmp_path / "empty")
    assert not (tmp_path / "empty").exists()


def test_build_initial_descriptors():
    spec = RunSpec(curve="circle:2", n=64)
    assert np.allclose(build_initial(spec).k, 0.5)
    spec = RunSpec(curve="ellipse:2,1", n=64)
    assert np.min(build_initial(spec).k) == pytest.approx(0.25)
    spec = RunSpec(curve="fourier:2:0.05", n=64, seed=3)
    prof = build_initial(spec)
    assert isinstance(prof, SupportProfile)
    again = build_initial(spec)
    assert np.array_equal(prof.h, again.h)  # same seed, same phases


def strict_load(path):
    """json.loads that rejects the non-standard NaN/Infinity/-Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token} in {path.name}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_json_outputs_are_strict(tmp_path, monkeypatch):
    g = AngleGrid(64)
    traj = run(FlowConfig(law=power_law(1), initial=circle_profile(1.0, g),
                          max_steps=20))
    traj.hypothesis_report = dataclasses.replace(
        traj.hypothesis_report, witness_c0=math.inf, worst_violation=math.inf)
    traj.form_disagreement = [0.0, math.nan]
    emit_timeseries(traj, tmp_path / "run", spec=RunSpec(n=64))
    doc = strict_load(tmp_path / "run" / "summary.json")
    assert doc["hypothesis_report"]["witness_c0"] is None
    assert doc["hypothesis_report"]["worst_violation"] is None
    assert doc["form_disagreement"] == [0.0, None]

    assert run_main(["containment", "--outer", "circle:2", "--inner", "circle:1",
                     "--n", "64", "--area-floor", "0.5",
                     "--out", str(tmp_path / "pair")]) == 0
    assert strict_load(tmp_path / "pair" / "containment.json")["all_ok"] is True

    # one member run fails at run time: its message is recorded, the other
    # run's entry keeps a null error
    execute_run = cli.execute_run

    def fail_ellipse(spec, out_dir, config=None):
        if spec.curve.startswith("ellipse"):
            raise DegenerateProfileError("forced")
        return execute_run(spec, out_dir, config)

    monkeypatch.setattr(cli, "execute_run", fail_ellipse)
    code = run_main(["sweep", "--curve", "circle:1", "--curve", "ellipse:2,1",
                     "--n", "64", "--area-floor", "0.5",
                     "--out", str(tmp_path / "sweep")])
    assert code == cli.EXIT_RUNTIME
    runs = strict_load(tmp_path / "sweep" / "sweep.json")["runs"]
    assert [(r["exit"], r["error"]) for r in runs] == [(0, None), (3, "forced")]


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, importing the same curveflow this suite tests
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, curveflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"
