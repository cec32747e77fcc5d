"""Property tests of the command line: random `run`, `sweep` and `containment` arguments.

Whatever the flags, `main` must return an exit code in 0-3 (never raise),
every JSON file it writes must be strict JSON, and a sweep that exits 2 must
not have started any run.
"""

import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from curveflow import flow
from curveflow.cli import main

EXIT_CODES = {0, 1, 2, 3}

numbers = st.floats(allow_nan=True, allow_infinity=True)
junk = st.text(max_size=12)


def mostly(valid, invalid):
    """Draws ``invalid`` one time in ten, so most examples reach a run."""
    return st.integers(0, 9).flatmap(lambda i: invalid if i == 0 else valid)


radii = mostly(st.floats(min_value=0.05, max_value=5.0), numbers)
laws = mostly(st.builds("power:{}".format, st.floats(min_value=0.2, max_value=4.0)),
              st.one_of(st.builds("power:{}".format, numbers), junk))
# amplitudes up to 0.5 / (m^2 + 1) keep most fourier curves convex
fourier_modes = st.lists(
    st.integers(-3, 20).flatmap(lambda m: st.tuples(
        st.just(m), st.floats(min_value=-0.5, max_value=0.5).map(lambda a: a / (m * m + 1)))),
    min_size=1, max_size=3)
curves = mostly(st.one_of(
    st.builds("circle:{}".format, radii),
    st.builds("ellipse:{},{}".format, radii, radii),
    fourier_modes.map(lambda modes: "fourier:" + ",".join(f"{m}:{a}" for m, a in modes)),
), junk)
k_caps = st.one_of(st.none(), mostly(st.floats(min_value=0.0, max_value=100.0), numbers))


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def assert_strict_json(root):
    for path in Path(root).rglob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)


def run_args(out, law, curve, n, cadence, area_floor, k_cap, scheme, max_steps):
    """The `run` argument vector of one example."""
    # --flag=value keeps values such as "-inf" or "-x" from reading as flags
    args = ["run", f"--law={law}", f"--curve={curve}", f"--n={n}",
            f"--cadence={cadence}", f"--area-floor={area_floor}",
            f"--scheme={scheme}", f"--max-steps={max_steps}", f"--out={out}"]
    if k_cap is not None:
        args.append(f"--k-cap={k_cap}")
    return args


def call_main(args):
    # overflowing inputs are the point here: a numpy warning, which
    # `python -W error` turns into a traceback, fails the example
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(args)
    assert code in EXIT_CODES, f"exit {code!r} for {args}"
    return code


@settings(max_examples=40, deadline=None)
@example(law="power:1", curve="circle:1", n=32, cadence=10 ** 400, area_floor=0.5,
         k_cap=None, scheme="curvature", max_steps=5)
@given(law=laws, curve=curves, n=mostly(st.sampled_from([32, 64]), st.just(16)),
       # a cadence beyond float range cannot be planned on the float CFL clock
       cadence=mostly(st.integers(1, 20), st.sampled_from([-1, 0, 10 ** 400])),
       area_floor=mostly(st.floats(min_value=1e-3, max_value=0.9), numbers),
       k_cap=k_caps, scheme=st.sampled_from(flow.FORMULATIONS),
       max_steps=mostly(st.integers(1, 40), st.just(0)))
def test_run_exits_with_a_code_and_writes_strict_json(law, curve, n, cadence,
                                                      area_floor, k_cap, scheme,
                                                      max_steps):
    with tempfile.TemporaryDirectory() as tmp:
        call_main(run_args(tmp, law, curve, n, cadence, area_floor, k_cap, scheme,
                           max_steps))
        assert_strict_json(tmp)


def test_run_args_of_valid_values_complete_a_run(tmp_path):
    # the argument vector the property test draws from parses and runs
    args = run_args(tmp_path, "power:2", "fourier:3:0.02", 32, 5, 0.5, 50.0, "both", 40)
    assert call_main(args) == 0
    assert_strict_json(tmp_path)
    assert (tmp_path / "summary.json").is_file()


@settings(max_examples=25, deadline=None)
@given(curves=st.lists(curves, min_size=1, max_size=3), k_cap=k_caps)
# a k_cap between the two curves' initial k_max: valid for the first only
@example(curves=["circle:1", "circle:0.1"], k_cap=5.0)
# a curvature range whose endpoint product overflows, once raised mid-sweep
@example(curves=["circle:1.0", "circle:1.3138184244495028e-254"], k_cap=None)
def test_sweep_rejects_before_any_run_or_indexes_every_run(curves, k_cap):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep"
        args = ["sweep", "--n", "32", "--max-steps", "20", "--out", str(out)]
        args += [f"--curve={curve}" for curve in curves]
        if k_cap is not None:
            args.append(f"--k-cap={k_cap}")
        code = call_main(args)
        if code == 2:
            assert not list(out.glob("run_*"))
            assert not (out / "sweep.json").exists()
        else:
            json.loads((out / "sweep.json").read_text(), parse_constant=_reject_constant)


# circles this small fit inside most valid outer curves, so most pairs reach a run
small_circles = st.builds("circle:{}".format, st.floats(min_value=0.01, max_value=0.04))


@settings(max_examples=30, deadline=None)
@given(law=laws, outer=curves, inner=mostly(small_circles, curves), k_cap=k_caps,
       max_steps=mostly(st.integers(1, 40), st.just(0)))
def test_containment_exits_with_a_code_and_writes_strict_json(law, outer, inner, k_cap,
                                                              max_steps):
    with tempfile.TemporaryDirectory() as tmp:
        args = ["containment", f"--law={law}", f"--outer={outer}", f"--inner={inner}",
                "--n=32", f"--max-steps={max_steps}", f"--out={tmp}"]
        if k_cap is not None:
            args.append(f"--k-cap={k_cap}")
        call_main(args)
        assert_strict_json(tmp)
