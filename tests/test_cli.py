import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from curveflow import cli, flow, geometry
from curveflow.cli import RunSpec, build_initial, emit_timeseries, main
from curveflow.errors import DegenerateProfileError, NotClosedError, StepRejected
from curveflow.flow import FlowConfig, run
from curveflow.geometry import AngleGrid, SupportProfile
from curveflow.oracle import circle_profile
from curveflow.speed_law import power_law

from conftest import scaled_rhs


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

    # feeding the config echo back reproduces the run byte for byte; the
    # "dealias", "spatial" and "cfl" keys of older versions' echoes are not
    # run settings, and are refused even at the one value every run used
    echo = json.loads((out1 / "summary.json").read_text())["config"]
    assert set(echo) == {f.name for f in dataclasses.fields(RunSpec)}
    spec = RunSpec.from_dict(echo)
    assert cli.execute_run(spec, out3) == 0
    assert bytes1 == (out3 / "series.csv").read_bytes()
    for old in ({"dealias": False}, {"spatial": "fourier"}, {"cfl": 0.4}):
        with pytest.raises(ValueError, match="unknown run setting"):
            RunSpec.from_dict(dict(echo, **old))


def test_echo_with_an_unknown_key_is_rejected():
    # a misspelt field must not rerun silently at that field's default
    with pytest.raises(ValueError, match="cadance"):
        RunSpec.from_dict({"cadance": 5, "law": "power:2"})


@pytest.mark.parametrize("retired", [{"spatial": "fd4"}, {"dealias": True}, {"cfl": 0.2},
                                     {"spatial": "fourier"}, {"dealias": False}, {"cfl": 0.4}])
def test_echo_with_a_retired_option_changed_is_rejected(retired):
    # an older echo's retired option is refused at any value, the one every
    # run used included: no run reads it
    with pytest.raises(ValueError, match=f"unknown run setting '{next(iter(retired))}'"):
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
    # the law is judged on the probes every run uses, and no option changes them
    assert "probes: 64\n" in out
    assert run_main(["check-law", "--law", "power:2", "--probes", "16"]) == 2
    assert "--probes" in capsys.readouterr().err
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


def test_containment_convexity_loss_exits_3(tmp_path, monkeypatch):
    def always_reject(*args):
        raise StepRejected("forced")

    monkeypatch.setattr(flow, "_rhs", always_reject)
    out = tmp_path / "pair"
    assert run_main(["containment", "--outer", "circle:2", "--inner", "circle:1",
                     "--n", "32", "--out", str(out)]) == 3
    doc = json.loads((out / "containment.json").read_text())
    assert doc["stop_reason"] == "convexity-loss"


def test_containment_offers_no_curve_or_scheme(tmp_path):
    # the pair's curves are --outer and --inner, evolved as support rows
    out = tmp_path / "pair"
    assert run_main(["containment", "--outer", "circle:2", "--inner", "circle:1",
                     "--curve", "not-a-curve", "--scheme", "support", "--n", "32",
                     "--max-steps", "5", "--out", str(out)]) == 2
    assert not out.exists()


def test_containment_k_cap_must_exceed_both_curves(tmp_path):
    # 0.7 is above the outer circle's k = 0.5 but not the inner circle's k = 1
    out = tmp_path / "pair"
    assert run_main(["containment", "--outer", "circle:2", "--inner", "circle:1",
                     "--k-cap", "0.7", "--n", "64", "--out", str(out)]) == 2
    assert not out.exists()


def test_containment_k_cap_must_be_finite(tmp_path):
    out = tmp_path / "pair"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_main(["containment", "--outer", "circle:2", "--inner", "circle:1",
                         "--k-cap", "inf", "--n", "32", "--area-floor", "0.5",
                         "--out", str(out)]) == 2
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
    ["--curve", "circle:1", "--k-cap", "inf"],
], ids=["unknown-curve", "k-cap-below-k-max", "k-cap-inf"])
def test_sweep_rejects_bad_entry_before_any_run(tmp_path, bad_entry):
    out = tmp_path / "sweep"
    code = run_main(["sweep", *bad_entry,
                     "--n", "64", "--area-floor", "1e-1", "--out", str(out)])
    assert code == 2
    assert not list(out.glob("run_*"))
    assert not (out / "sweep.json").exists()


def test_degenerate_snapshot_is_a_stop_not_a_crash(tmp_path, monkeypatch):
    summarize = geometry.summarize
    spec = RunSpec(curve="circle:1", n=64, area_floor=1e-2, cadence=5)
    clean = []

    def counted(*args, **kwargs):
        clean.append(args)
        return summarize(*args, **kwargs)

    marks = []  # the step counts at which the clean run lands on a cadence mark
    advance = flow._Clock.advance

    def recording(clock, dt, units, on_cadence):
        advance(clock, dt, units, on_cadence)
        if on_cadence:
            marks.append(clock.steps)

    monkeypatch.setattr(geometry, "summarize", counted)
    monkeypatch.setattr(flow._Clock, "advance", recording)
    assert cli.execute_run(spec, tmp_path / "clean") == 0
    final = json.loads((tmp_path / "clean" / "summary.json").read_text())
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
        # the third snapshot, the second cadence mark's, fails
        assert summary["steps"]["count"] == marks[1]
        # the state whose snapshot failed is not summarized a second time
        assert len(calls) == 3
        # the snapshots before the failing one are kept, in order
        times = [s["t"] for s in summary["snapshots"]]
        assert len(times) >= 2 and times[0] == 0.0 and times[1] > 0.0
        assert times == sorted(times)

        # a snapshot that fails at the stop sets the stop reason
        calls.clear()

        def fail_last(*args, **kwargs):
            calls.append(args)
            if len(calls) == len(clean):
                raise error("forced")
            return summarize(*args, **kwargs)

        monkeypatch.setattr(geometry, "summarize", fail_last)
        out = tmp_path / f"{error.__name__}-at-stop"
        assert cli.execute_run(spec, out) == cli.EXIT_RUNTIME
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == stop_reason
        assert summary["steps"]["count"] == final["steps"]["count"]
        assert len(calls) == len(clean)
        assert summary["snapshots"][-1]["t"] < final["snapshots"][-1]["t"]


@pytest.mark.parametrize("args, expected", [
    # area pi R^2 overflows: the initial snapshot is degenerate, in support
    # form and in curvature form
    (["run", "--curve", "circle:1.3407807929942596e+154", "--scheme", "support"], 3),
    (["run", "--curve", "circle:6.748370691814794e+161"], 3),
    # h = R overflows in the Fourier support solve (support form, as above)
    (["run", "--curve", "circle:5.617791046444737e+306", "--scheme", "support"], 3),
    # G = k^(p-1) overflows on the law's probes, which containment takes
    # through run's gate (the step halving once looped forever on dt = 0)
    (["containment", "--law", "power:1.4571529819837308e+16",
      "--outer", "circle:0.05", "--inner", "circle:0.01"], 3),
    # p = 6 shrinks R = 1e-30 to a point by t = R^7 / 7: Phi = k^6 is about
    # 1e180, so the gradient estimate's Phi^2 would overflow to an inf bound
    # and a NaN margin, which fails, had it not scaled Phi by a power of two;
    # snapshots about 6e-213 apart are judged by the evolution identities
    # through flux integrals of that scale
    (["run", "--law", "power:6", "--curve", "circle:1e-30", "--scheme", "support",
      "--cadence", "5"], 0),
    # a member run that fails at run time is recorded, not lost (support
    # form, so that the member reaches its overflowing area)
    (["sweep", "--curve", "circle:1", "--curve", "circle:1.3407807929942596e+154",
      "--scheme", "support"], 3),
], ids=["area-overflow", "cfl-underflow", "support-overflow", "law-overflow",
        "stencil-underflow", "sweep-member"])
def test_unrepresentable_inputs_end_with_an_exit_code(tmp_path, args, expected):
    out = tmp_path / "extreme"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
@pytest.mark.parametrize("args, expected", [
    # G = x^2 overflows on the upper probes
    (["check-law", "--law", "power:3", "--range", "1e-200,1e200"], 3),
    # the law's probes and the member's area overflow
    (["sweep", "--curve", "circle:1", "--curve", "circle:1.3407807929942596e+154",
      "--n", "64"], 3),
    # G = x^2 underflows to 0 on the lower probes: a domain error, not a
    # failed hypothesis
    (["check-law", "--law", "power:3", "--range", "1e-300,1e-170"], 3),
    # k = 1e-200 underflows G and Phi' on the working range
    (["run", "--law", "power:3", "--curve", "circle:1e200", "--n", "32",
      "--max-steps", "5"], 3),
    # G' = 0 x^-1 and G'' = 0 x^-2 at p = 1: zero, though x^-2 overflows
    (["check-law", "--law", "power:1", "--range", "1e-300,1e-170"], 0),
    # k^2 Phi(k) = k^3 is 0 (1e-330) or subnormal (1e-315) on the lower
    # probes, but the run steps kappa = lambda k, which stays near 1: the
    # curvature form integrates these circles as it does 1e100, and so
    # does the support form
    (["run", "--curve", "circle:1e110", "--n", "32", "--max-steps", "5"], 0),
    (["run", "--curve", "circle:1e105", "--n", "32", "--max-steps", "5"], 0),
    (["run", "--curve", "circle:1e100", "--n", "32", "--max-steps", "5"], 0),
    (["run", "--curve", "circle:1e110", "--scheme", "support", "--n", "32",
      "--max-steps", "5"], 0),
    # G = k^19 overflows on the upper probes: containment refuses the law
    # at the gate run uses, with run's message
    (["containment", "--law", "power:20", "--outer", "circle:1e-12", "--inner",
      "circle:0.5e-12", "--area-floor", "0.1", "--n", "32"], 3),
    # G = k^2 overflows on every probe of [5e199, 1e207]
    (["containment", "--law", "power:3", "--outer", "circle:1e-200", "--inner",
      "circle:1e-201", "--n", "32", "--max-steps", "5"], 3),
    # G = k^2 is finite on the probes, but k^2 Phi'(k) = 3 k^4 overflows at
    # k = 1e100: the first step has no finite length
    (["run", "--law", "power:3", "--curve", "circle:1e-100", "--n", "32",
      "--max-steps", "5"], 3),
], ids=["check-law", "sweep", "check-law-underflow", "run-underflow",
        "check-law-zero-coefficient", "rhs-underflow", "rhs-subnormal", "rhs-normal",
        "rhs-underflow-support-form", "containment-g-overflow",
        "containment-g-overflow-tiny", "stiffness-overflow"])
def test_overflowing_probes_exit_3_without_warnings(tmp_path, args, expected):
    out = [] if args[0] == "check-law" else ["--out", str(tmp_path / "out")]
    assert run_main(args + out) == expected


def test_a_tiny_circle_is_an_ordinary_run(tmp_path):
    # k^2 (Phi'' + Phi) = k^5 would overflow near k = 4e61 in physical
    # variables; in the normalized frame kappa stays 1 and the run reaches
    # its floor with every monitor passing and no numpy warning
    out = tmp_path / "tiny"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_main(["run", "--law", "power:3", "--curve", "circle:1e-61", "--n", "32",
                         "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stop_reason"] == "area-floor"
    assert all(m["status"] == "pass" for m in summary["monitors"])


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
    monkeypatch.setattr(flow, "_rhs", lambda *args: scaled_rhs(1.02, rhs(*args)))
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


def test_usage_errors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a run would write its default --out
    assert run_main(["run", "--no-such-flag"]) == 2
    assert run_main(["run", "--curve", "heptagon:3", "--n", "64"]) == 2
    assert run_main(["run", "--law", "mystery:1", "--n", "64"]) == 2
    assert run_main(["run", "--law", "power:inf", "--n", "64"]) == 2
    assert run_main(["run", "--n", "63"]) == 2
    # fourier amplitudes that break convexity are a configuration error
    assert run_main(["run", "--curve", "fourier:5:0.2", "--n", "64"]) == 2
    # a mode number beyond float range, a phase m theta or a spectrum of h
    # that overflows, without a numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pair in (f"{10 ** 400}:0.1", f"{10 ** 308}:0.1", "3:1e308"):
            assert run_main(["run", "--curve", f"fourier:{pair}", "--n", "32"]) == 2
        # an ellipse whose curvature overflows or divides by an underflowed b^2
        for axes in ("1e300,1", "2,1e-200"):
            assert run_main(["run", "--curve", f"ellipse:{axes}", "--n", "32"]) == 2
        # a law judged up to an infinite cap or range would be judged on NaN probes
        assert run_main(["run", "--k-cap", "inf", "--n", "32", "--area-floor", "0.5"]) == 2
        assert run_main(["check-law", "--law", "power:1", "--range", "1,inf"]) == 2
    # a cadence beyond float range, which the float CFL clock cannot plan
    assert run_main(["run", "--n", "32", "--max-steps", "5", "--cadence", "1" + "0" * 400]) == 2


def _refuse_allocation(*args, **kwargs):
    raise MemoryError("Unable to allocate 8.00 TiB for an array")


@pytest.mark.parametrize("target, args", [
    # the probes of check-law
    ((np, "geomspace"), ["check-law", "--law", "power:1"]),
    # the angle grid a run builds first
    ((geometry, "AngleGrid"), ["run", "--curve", "circle:1", "--n", "32"]),
], ids=["check-law", "run"])
def test_a_failed_allocation_exits_3(tmp_path, monkeypatch, capsys, target, args):
    monkeypatch.chdir(tmp_path)  # where a run would write its default --out
    monkeypatch.setattr(*target, _refuse_allocation)
    assert run_main(args) == 3
    assert capsys.readouterr().err == "error: Unable to allocate 8.00 TiB for an array\n"


def test_a_failed_allocation_in_a_sweep_member_keeps_the_index(tmp_path, monkeypatch, capsys):
    # the first member's run cannot allocate; the second still runs, and
    # sweep.json records both
    real, calls = flow.run, []

    def first_run_fails(config):
        calls.append(config)
        if len(calls) == 1:
            raise MemoryError()  # a bare MemoryError carries no message
        return real(config)

    monkeypatch.setattr(flow, "run", first_run_fails)
    out = tmp_path / "sweep"
    assert run_main(["sweep", "--curve", "circle:1", "--curve", "circle:2", "--n", "32",
                     "--area-floor", "0.5", "--out", str(out)]) == 3
    runs = json.loads((out / "sweep.json").read_text())["runs"]
    assert [(entry["exit"], entry["error"]) for entry in runs] == [
        (3, "out of memory"), (0, None)]
    assert capsys.readouterr().err == f"{runs[0]['name']}: out of memory\n"


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


def test_write_json_writes_the_bytes_of_dumps(tmp_path):
    # non-finite floats nested in dicts, lists and tuples become null
    doc = {"a": [1.5, math.nan, (2.0, -math.inf)], "b": {"c": math.inf, "d": [1, "x", None]},
           "e": (0.25, {"f": [math.nan]}), "g": 1e-300}
    expected = {"a": [1.5, None, [2.0, None]], "b": {"c": None, "d": [1, "x", None]},
                "e": [0.25, {"f": [None]}], "g": 1e-300}
    cli._write_json(tmp_path / "doc.json", doc)
    text = (tmp_path / "doc.json").read_text()
    assert text == json.dumps(expected, indent=2, allow_nan=False) + "\n"
    assert text == json.dumps(cli._finite_or_null(doc), indent=2, allow_nan=False) + "\n"
    assert doc["a"][1] != doc["a"][1]  # the document itself is not changed


def test_write_json_holds_no_copy_of_the_document(tmp_path):
    # a summary-like document of about 1.9 MB: joined into one string, its
    # text alone would exceed the file size
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((4000, len(cli.SERIES_COLUMNS))).tolist()
    doc = {"snapshots": [dict(zip(cli.SERIES_COLUMNS, row)) for row in rows],
           "monitors": [{"values": [math.nan, *rng.standard_normal(500).tolist()]}]}
    path = tmp_path / "big.json"
    cli._write_json(path, doc)
    size = path.stat().st_size
    assert size > 1_500_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        cli._write_json(path, doc)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == size
    assert peak < size


def test_cli_import_loads_no_scipy(tmp_path):
    # a fresh interpreter, importing the same curveflow this suite tests; a
    # run must load neither scipy nor numpy.polynomial, about 2 MB resident
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, curveflow.cli; "
            "curveflow.cli.main(['run', '--law', 'power:1', '--curve', 'circle:1', '--n', '32', "
            f"'--max-steps', '5', '--out', {str(tmp_path)!r}]); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip().splitlines()[-1] == "[]"
