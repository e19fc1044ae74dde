import io
import json
import math
import re
import shlex
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import mp_hulthen_probabilities
from qscat import Hulthen
from qscat.cli import _format_column, format_number, main

TESTS = Path(__file__).parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatNumber:
    def test_zero(self):
        assert format_number(0.0) == "0"
        assert format_number(-0.0) == "0"

    def test_padding_to_twelve_significant_digits(self):
        assert format_number(0.5) == "0.500000000000"
        assert format_number(2.0) == "2.00000000000"
        assert format_number(1e-5) == "1.00000000000e-05"

    def test_long_reprs_kept_as_is(self):
        assert format_number(1 / 3) == repr(1 / 3)

    def test_nonfinite(self):
        assert format_number(float("inf")) == "ERR:nonfinite"
        assert format_number(float("nan")) == "ERR:nonfinite"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip(self, x):
        rendered = format_number(x)
        assert float(rendered) == x or (x == 0.0 and rendered == "0")

    @given(st.floats(allow_nan=False, allow_infinity=False, min_value=1e-300, max_value=1e300))
    def test_minimum_significant_digits(self, x):
        rendered = format_number(x)
        mantissa = rendered.split("e")[0].lstrip("-").replace(".", "").lstrip("0")
        assert len(mantissa) >= 12


def _padded_repr(x):
    """The number format as first written, one float at a time: repr padded to 12
    significant digits."""
    x = float(x)
    if not math.isfinite(x):
        return "ERR:nonfinite"
    if x == 0.0:
        return "0"
    mantissa, _, exponent = repr(x).partition("e")
    sign = ""
    if mantissa[0] in "+-":
        sign, mantissa = mantissa[0], mantissa[1:]
    sig = len(mantissa.replace(".", "").lstrip("0"))
    if sig < 12:
        if "." not in mantissa:
            mantissa += "."
        mantissa += "0" * (12 - sig)
    return sign + mantissa + ("e" + exponent if exponent else "")


# floats near where repr switches between positional and exponent form (1e-4, 1e16),
# subnormals, signed zeros, inf and nan, and the ERR: and None cells of a table
COLUMN_CELL = st.one_of(
    st.floats(),
    st.floats(min_value=9e-5, max_value=1.1e-4),
    st.floats(min_value=9e15, max_value=1.1e16),
    st.floats(min_value=-1e-307, max_value=1e-307),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-4, 1e16, math.inf, -math.inf, math.nan, 0.5, 2.0]),
    st.sampled_from(["ERR:invalid", "ERR:noconv", "ERR:degenerate"]),
    st.none(),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(
    st.lists(COLUMN_CELL, max_size=40),
    # few distinct values, as in a defect column
    st.lists(st.sampled_from([0.0, -0.0, 2.220446049250313e-16, 1e-16, None, "ERR:invalid"]), max_size=40),
))
@example([-0.0, 0.0, 5e-324, 1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0,
          math.inf, -math.inf, math.nan, None, "ERR:na", 1e-05, -1.5e-310])
# 11 significant digits behind the most other characters each repr form allows
@example([-1.2345678901e-310, 1.2345678901e-310, -0.00012345678901, 0.00012345678901,
          0.12345678901, 12345678901.0, -12345678901.0, 1.2345678901e16])
def test_column_renderer_is_format_number(cells):
    rendered = _format_column(cells)
    assert len(rendered) == len(cells)
    for cell, text in zip(cells, rendered):
        if cell is None:
            assert text == "ERR:na"
        elif isinstance(cell, str):
            assert text == cell
        else:
            assert text == format_number(cell) == _padded_repr(cell)


class TestEval:
    def test_delta_matched_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--potential", "delta", "--alpha", "1", "--energy", "0.5",
            "--method", "exact",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "energy,exact_T,exact_R,exact_defect"
        cells = row.split(",")
        assert float(cells[1]) == pytest.approx(0.5, abs=1e-12)

    def test_wkb_alias(self, capsys):
        code, out, _ = run_cli(
            capsys, "wkb", "--potential", "rect", "--v0", "1", "--a", "1", "--energy", "0.5"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "energy,wkb_T"
        assert float(row.split(",")[1]) == pytest.approx(math.exp(-4.0), rel=1e-12)

    def test_bound_alias(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--potential", "rect", "--v0", "1", "--a", "1", "--energy", "2"
        )
        assert code == 0
        row = out.strip().splitlines()[1]
        assert float(row.split(",")[1]) == pytest.approx(1 / math.cosh(1.0) ** 2, rel=1e-12)

    def test_physics_error_keeps_exit_zero(self, capsys):
        # energy exactly at the barrier top: data-level ERR cell, success exit
        code, out, _ = run_cli(
            capsys,
            "eval", "--potential", "rect", "--v0", "1", "--a", "1", "--energy", "1",
        )
        assert code == 0
        assert "ERR:degenerate" in out

    def test_subnormal_denominator_gives_a_number(self, capsys):
        # the amplitude denominators are subnormal here: a quotient that multiplies by
        # 1/denominator overflows to ERR:invalid, one that divides last gives T = 1
        code, out, _ = run_cli(
            capsys,
            "eval", "--potential", "rect", "--v0", "6.071077792413529e-294",
            "--a", "3.7825607564633515e+139", "--hbar", "1.549027458792789e-37",
            "--mass", "8.762077215798864e-99", "--energy", "7.379446629148523e-294",
        )
        assert code == 0
        assert out.splitlines()[1] == "7.379446629148523e-294,1.00000000000,0,0"

    def test_multiple_methods(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--potential", "rect", "--v0", "1", "--a", "1", "--energy", "2",
            "--method", "exact", "--method", "bound",
        )
        assert code == 0
        header = out.strip().splitlines()[0]
        assert header == "energy,exact_T,exact_R,exact_defect,bound_T,bound_gap"

    def test_eckart_paper_reflection_column(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--potential", "eckart", "--v0", "0", "--a", "1",
            "--v-minus-inf", "1.5", "--energy", "2", "--r-convention", "paper",
        )
        assert code == 0
        header = out.strip().splitlines()[0]
        assert header.endswith("exact_R_paper")

    def test_r_convention_needs_eckart(self, capsys):
        code, out, err = run_cli(
            capsys,
            "eval", "--potential", "rect", "--v0", "1", "--a", "1", "--energy", "2",
            "--r-convention", "paper",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_hulthen_exact_needs_unit_hbar(self, capsys):
        # the Hulthen amplitudes are written with hbar = 1; the bound takes any hbar
        argv = ("eval", *HULTHEN, "--energy", "2", "--method", "exact", "--method", "bound")
        header = "energy,exact_T,exact_R,exact_defect,bound_T,bound_gap\n"
        assert run_cli(capsys, *argv, "--hbar", "1") == (0, header + (
            "2.00000000000,0.07180277379138815,0.9281972262084391,1.7275070263167436e-13,"
            "0.00014374221471182873,0.07165903157667632\n"
        ), "")
        assert run_cli(capsys, *argv, "--hbar", "2") == (0, header + (
            "2.00000000000,ERR:unsupported,ERR:unsupported,ERR:unsupported,"
            "0.02369442973023314,ERR:na\n"
        ), "")

    def test_eckart_paper_reflection_large_arguments(self, capsys):
        # pi a (k + w) ~ 1780: cosh alone would overflow a double
        code, out, _ = run_cli(
            capsys,
            "eval", "--potential", "eckart", "--v-plus-inf", "100", "--v0", "0.001",
            "--a", "20", "--energy", "100.01", "--r-convention", "paper",
        )
        assert code == 0
        # mpmath at 50 digits
        assert float(out.strip().splitlines()[1].split(",")[-1]) == pytest.approx(
            1.91391138057513e-8, rel=1e-9
        )
        code, out, _ = run_cli(
            capsys,
            "eval", "--potential", "eckart", "--v0", "1", "--a", "20", "--energy", "100",
            "--r-convention", "paper",
        )
        assert code == 0
        assert all(math.isfinite(float(cell)) for cell in out.strip().splitlines()[1].split(","))

    def test_hulthen_high_energy(self, capsys):
        # k = sqrt(E^2 - 1) rounds to E = 1e8
        code, out, _ = run_cli(
            capsys,
            "eval", "--potential", "hulthen", "--v0", "1", "--a", "0.5", "--q", "0.9",
            "--energy", "1e8",
        )
        assert code == 0
        _, t, r, _ = (float(cell) for cell in out.strip().splitlines()[1].split(","))
        assert math.isfinite(t) and math.isfinite(r)
        assert abs(t + r - 1.0) <= 1e-12

    def test_hulthen_bound_large_exponent(self, capsys):
        # the sech^2 exponent is ~1960: cosh alone would overflow a double
        code, out, _ = run_cli(
            capsys,
            "bound", "--potential", "hulthen", "--v0", "1", "--a", "0.001", "--q", "0.5",
            "--energy", "1",
        )
        assert code == 0
        assert 0.0 <= float(out.strip().splitlines()[1].split(",")[1]) < 1e-300

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--potential", "delta", "--energy", "1.0"
        )
        assert code == 2
        assert "--alpha" in err

    def test_invalid_parameter_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "eval", "--potential", "hulthen", "--v0", "1", "--a", "0.5", "--q", "1.5",
            "--energy", "2",
        )
        assert code == 2


class TestSweep:
    def test_two_point_file(self, capsys, tmp_path):
        out_file = tmp_path / "mini.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--potential", "rect", "--v0", "1", "--a", "1",
            "--var", "q", "--lo", "0.1", "--hi", "5", "--points", "2",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert lines[0] == "var,exact_T,exact_R,exact_defect"

    def test_infinite_bound_is_usage_error(self, capsys):
        # np.linspace would fill the grid with NaN, with a RuntimeWarning
        code, out, err = run_cli(
            capsys,
            "sweep", "--potential", "delta", "--alpha", "1", "--var", "k",
            "--lo", "0", "--hi", "inf", "--points", "3",
        )
        assert (code, out) == (2, "")
        assert err == "error: need finite lo, hi and hi - lo, got (0.0, inf)\n"

    def test_rerun_byte_identical(self, capsys, tmp_path):
        args = (
            "sweep", "--potential", "delta", "--alpha", "1",
            "--var", "k", "--lo", "0.02", "--hi", "10", "--points", "100",
        )
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--out", str(first))[0] == 0
        assert run_cli(capsys, *args, "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_recompute(self, capsys, tmp_path):
        from one_point import rectangular
        from qscat import NATURAL_UNITS
        from qscat.exact import probability_arrays

        out_file = tmp_path / "roundtrip.csv"
        run_cli(
            capsys,
            "sweep", "--potential", "rect", "--v0", "1", "--a", "1",
            "--var", "q", "--lo", "0.3", "--hi", "4.7", "--points", "7",
            "--out", str(out_file),
        )
        for line in out_file.read_text().splitlines()[1:]:
            cells = line.split(",")
            q = float(cells[0])
            energy = 1.0 + 0.5 * q * q
            amps = rectangular(1.0, 1.0, energy, NATURAL_UNITS)
            (t,), _, _ = probability_arrays(np.array([amps.t]), np.array([amps.r]))
            assert t == float(cells[1])

    def test_lf_line_endings(self, capsys, tmp_path):
        out_file = tmp_path / "lf.csv"
        run_cli(
            capsys,
            "sweep", "--potential", "delta", "--alpha", "1",
            "--var", "k", "--lo", "0.1", "--hi", "1", "--points", "2",
            "--out", str(out_file),
        )
        raw = out_file.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "sweep", "--potential", "delta", "--alpha", "1",
            "--var", "k", "--lo", "0.1", "--hi", "1", "--points", "2",
            "--out", str(tmp_path / "missing" / "file.csv"),
        )
        assert code == 3

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--potential", "delta", "--alpha", "1",
            "--var", "k", "--lo", "0.1", "--hi", "1", "--points", "2",
        )
        assert code == 0
        assert out.startswith("var,exact_T")

    def test_gap_marker_row_renders_err_cells(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--potential", "rect", "--v0", "1", "--a", "1",
            "--var", "E", "--lo", "0.5", "--hi", "1.5", "--points", "3",
        )
        assert code == 0
        middle = out.strip().splitlines()[2]
        assert "ERR:degenerate" in middle

    def test_spec_file(self, capsys, tmp_path):
        spec_file = tmp_path / "sweep.conf"
        spec_file.write_text(
            "# reference delta sweep\n"
            "potential=delta\n"
            "alpha=1\n"
            "var=k\n"
            "lo=0.1\n"
            "hi=1\n"
            "points=2\n"
        )
        code, out, _ = run_cli(capsys, "sweep", "--spec", str(spec_file))
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_spec_file_overridden_by_later_flags(self, capsys, tmp_path):
        spec_file = tmp_path / "sweep.conf"
        spec_file.write_text("potential=delta\nalpha=1\nvar=k\nlo=0.1\nhi=1\npoints=2\n")
        code, out, _ = run_cli(capsys, "sweep", "--spec", str(spec_file), "--points", "4")
        assert code == 0
        assert len(out.strip().splitlines()) == 5


    def test_thick_rectangular_barrier(self, capsys):
        # 2Qa up to ~760: sinh(2Qa) alone would overflow a double
        code, out, _ = run_cli(
            capsys,
            "sweep", "--potential", "rect", "--v0", "1", "--a", "400",
            "--var", "E", "--lo", "0.1", "--hi", "0.9", "--points", "3",
        )
        assert code == 0
        assert "ERR" not in out
        for row in out.strip().splitlines()[1:]:
            _, t, r, _ = (float(cell) for cell in row.split(","))
            assert math.isfinite(t) and t >= 0.0
            assert abs(t + r - 1.0) <= 1e-12
        # above the barrier the sech^2 exponent reaches ~540: cosh alone would overflow
        code, out, _ = run_cli(
            capsys,
            "sweep", "--potential", "rect", "--v0", "1", "--a", "400",
            "--var", "E", "--lo", "1.1", "--hi", "2", "--points", "3",
            "--methods", "exact,bound",
        )
        assert code == 0
        assert "ERR" not in out
        for row in out.strip().splitlines()[1:]:
            _, t, _, _, bound, _ = (float(cell) for cell in row.split(","))
            assert 0.0 <= bound <= t


HULTHEN = ("--potential", "hulthen", "--v0", "1", "--a", "0.5", "--q", "0.9")
RECT_PHASE_ABOVE = ("eval", "--potential", "rect", "--v0", "1e-300", "--a", "1e290", "--energy", "1e290")
RECT_PHASE_BELOW = ("eval", "--potential", "rect", "--v0", "1e290", "--a", "1e290", "--energy", "1e289")
ECKART_TURNING_POINT = (
    "eval", "--potential", "eckart", "--v0", "1e226", "--a", "1", "--energy", "1e-133", "--method", "wkb"
)
HULTHEN_WINDOW = (
    "eval", "--potential", "hulthen", "--v0", "1", "--a", "1e300", "--q", "0.9", "--energy", "0.5",
    "--method", "wkb",
)
ECKART_ACTION = (
    "eval", "--potential", "eckart", "--v0", "1e134", "--a", "1e250", "--energy", "1e-79", "--method", "wkb"
)
ECKART_THIN = (
    "eval", "--potential", "eckart", "--v0", "1", "--a", "1e-20", "--energy", "1",
    "--method", "exact", "--method", "bound",
)
ECKART_NAN = (
    "eval", "--potential", "eckart", "--v0", "4e+66", "--a", "2e-04", "--v-minus-inf", "8e-170",
    "--v-plus-inf", "3e-128", "--energy", "1e+143", "--hbar", "5e-62", "--mass", "1e+250",
)
RECT_BOUND_NAN = (
    "eval", "--potential", "rect", "--v0", "4e+158", "--a", "3e+132", "--energy", "3e-04",
    "--hbar", "3e-130", "--mass", "2e+71", "--method", "bound",
)
ECKART_R_CONVENTION = (
    "eval", "--potential", "eckart", "--v0", "1", "--a", "1", "--energy", "2",
    "--r-convention", "paper", "--hbar", "1e200",
)

NEGATIVE_INFINITE_ENERGY = ("eval", "--potential", "rect", "--v0", "1", "--a", "1", "--energy", "-inf")
NEGATIVE_INFINITE_LO = (
    "sweep", "--potential", "delta", "--alpha", "1", "--var", "k", "--lo", "-inf", "--hi", "2",
    "--points", "3",
)

# every float flag of each family; --energy, --hbar and --mass come on top
FAMILY_FLAGS = {
    "delta": ("--alpha",),
    "rect": ("--v0", "--a"),
    "eckart": ("--v0", "--a", "--v-minus-inf", "--v-plus-inf"),
    "hulthen": ("--v0", "--a", "--q"),
}
LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@st.composite
def extreme_eval_argv(draw):
    family = draw(st.sampled_from(sorted(FAMILY_FLAGS)))
    argv = ["eval", "--potential", family]
    for flag in (*FAMILY_FLAGS[family], "--energy", "--hbar", "--mass"):
        argv += [flag, repr(draw(LOG_UNIFORM))]
    return argv


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(extreme_eval_argv())
@example(list(RECT_PHASE_ABOVE))
@example(list(RECT_PHASE_BELOW))
@example(list(ECKART_TURNING_POINT[:-2]))
@example(list(HULTHEN_WINDOW[:-2]))
@example(list(ECKART_ACTION[:-2]))
@example(list(ECKART_THIN[:-4]))
@example(list(ECKART_NAN))
@example(list(RECT_BOUND_NAN[:-2]))
@example(list(ECKART_R_CONVENTION))
@example(["eval", "--potential", "eckart", "--v0", "1", "--a", "1", "--energy", "inf"])
@example(["eval", "--potential", "rect", "--v0", "1", "--a", "1", "--energy", "nan"])
@example(list(NEGATIVE_INFINITE_ENERGY))
@example([*NEGATIVE_INFINITE_ENERGY[:-1], "-nan"])
@example([*NEGATIVE_INFINITE_ENERGY[:-2]])
def test_extreme_inputs_give_numbers_or_err_cells(argv):
    """Any accepted input exits 0 with finite numbers or ERR:<code> cells (or 2 with one
    usage-error line), never a traceback or a warning, and the bound stays below T."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([*argv, "--method", "exact", "--method", "wkb", "--method", "bound"])
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
        return
    assert code == 0 and err.getvalue() == ""
    header, row = out.getvalue().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    for cell in cells.values():
        if cell.startswith("ERR:"):
            assert cell != "ERR:nonfinite", cells  # a non-finite result is ERR:invalid
        else:
            assert math.isfinite(float(cell)), cells
    exact, bound = cells["exact_T"], cells["bound_T"]
    if not (exact.startswith("ERR:") or bound.startswith("ERR:")):
        assert float(bound) <= float(exact) * (1.0 + 1e-9), cells


FAMILY_VARIABLES = {"delta": ("k", "E"), "rect": ("q", "E"), "eckart": ("V0", "E"), "hulthen": ("E",)}
INFINITE_BOUND = (
    "sweep", "--potential", "delta", "--alpha", "1", "--var", "k", "--lo", "0", "--hi", "inf",
    "--points", "3",
)
HULTHEN_NEAR_ONE = (
    "sweep", "--potential", "hulthen", "--v0", "1", "--a", "0.5", "--q", "0.999", "--var", "E",
    "--lo", "1.09", "--hi", "10", "--points", "5",
)


@st.composite
def extreme_sweep_argv(draw):
    family = draw(st.sampled_from(sorted(FAMILY_FLAGS)))
    variable = draw(st.sampled_from(FAMILY_VARIABLES[family]))
    argv = ["sweep", "--potential", family, "--var", variable]
    for flag in (*FAMILY_FLAGS[family], "--hbar", "--mass"):
        argv += [flag, repr(draw(LOG_UNIFORM))]
    if variable == "V0":
        argv += ["--energy", repr(draw(LOG_UNIFORM))]
    lo, hi = sorted((draw(LOG_UNIFORM), draw(LOG_UNIFORM)))
    argv += ["--lo", repr(lo), "--hi", repr(hi), "--points", str(draw(st.integers(2, 5)))]
    return argv + (["--log-spaced"] if draw(st.booleans()) else [])


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(extreme_sweep_argv())
@example(list(INFINITE_BOUND))
@example(list(HULTHEN_NEAR_ONE))
@example(list(NEGATIVE_INFINITE_LO))
def test_extreme_sweeps_give_numbers_or_err_cells(argv):
    """The sweep form of test_extreme_inputs_give_numbers_or_err_cells: every row
    holds finite numbers or ERR:<code> cells, or the run is one usage-error line."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([*argv, "--methods", "exact,wkb,bound"])
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
        return
    assert code == 0 and err.getvalue() == ""
    header, *rows = out.getvalue().splitlines()
    assert 2 <= len(rows) <= 5
    for row in rows:
        cells = dict(zip(header.split(","), row.split(",")))
        for cell in cells.values():
            if cell.startswith("ERR:"):
                assert cell != "ERR:nonfinite", cells
            else:
                assert math.isfinite(float(cell)), cells
        exact, bound = cells["exact_T"], cells["bound_T"]
        if not (exact.startswith("ERR:") or bound.startswith("ERR:")):
            assert float(bound) <= float(exact) * (1.0 + 1e-9), cells


@pytest.mark.parametrize("argv", [
    ("sweep", "--potential", "eckart", "--v-minus-inf", "1.5", "--v0", "0", "--a", "1",
     "--var", "V0", "--energy", "inf", "--lo", "-1", "--hi", "1", "--points", "3"),
    ("resonances", "--potential", "eckart", "--v0", "1", "--a", "1", "--var", "V0",
     "--energy=-inf"),
    ("resonances", "--potential", "eckart", "--v0", "1", "--a", "1", "--var", "V0",
     "--energy", "nan", "--numeric", "--lo", "-1", "--hi", "1", "--grid-n", "16"),
    ("bound", "--potential", "rect", "--v0", "1", "--a", "1", "--energy", "nan"),
], ids=["sweep-inf", "resonances-minus-inf", "resonances-numeric-nan", "bound-nan"])
def test_nonfinite_energy_is_usage_error(capsys, argv):
    # an infinite energy once gave T = 1 rows and resonance listings with exit 0
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: --energy must be finite") and len(err.splitlines()) == 1


RECT_SCAN = (
    "resonances", "--potential", "rect", "--v0", "1", "--a", "1", "--var", "q", "--numeric",
    "--lo", "0.1", "--hi", "50", "--grid-n", "16",
)


@st.composite
def extreme_resonances_argv(draw):
    family = draw(st.sampled_from(sorted(FAMILY_FLAGS)))
    numeric = draw(st.booleans())
    variable = draw(st.sampled_from(FAMILY_VARIABLES[family] if numeric else ("k", "q", "E", "V0")))
    argv = ["resonances", "--potential", family, "--var", variable,
            "--kind", draw(st.sampled_from(("transmission", "reflection")))]
    for flag in (*FAMILY_FLAGS[family], "--energy", "--hbar", "--mass"):
        argv += [flag, repr(draw(LOG_UNIFORM))]
    if not numeric:
        return argv + ["--n", str(draw(st.integers(1, 4)))]
    lo, hi = sorted((draw(LOG_UNIFORM), draw(LOG_UNIFORM)))
    return argv + ["--numeric", "--lo", repr(lo), "--hi", repr(hi), "--grid-n", "16"]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(extreme_resonances_argv())
@example([*RECT_SCAN, "--refine-tol", "5e-324"])
@example([*RECT_SCAN, "--refine-tol", "nan"])
@example(["resonances", "--potential", "eckart", "--v0", "1", "--a", "1e-300", "--var", "V0", "--n", "3"])
@example(["resonances", "--potential", "eckart", "--v0", "1", "--a", "1", "--var", "V0", "--n", "3",
          "--hbar", "1e200"])
@example(["resonances", "--potential", "rect", "--v0", "1", "--a", "1e-308", "--var", "q", "--n", "3"])
def test_extreme_resonances_give_numbers_or_usage_error(argv):
    """The resonances form of test_extreme_inputs_give_numbers_or_err_cells, analytic and
    --numeric: every listed location and value is a finite number, or the run is one
    usage-error line."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
        return
    assert code == 0 and err.getvalue() == ""
    header, *rows = out.getvalue().splitlines()
    assert header == "kind,location,value,source,label,boundary"
    for row in rows:
        if row.startswith("# "):
            continue
        for cell in row.split(",")[1:3]:
            if cell.startswith("ERR:"):
                assert cell != "ERR:nonfinite", row
            else:
                assert math.isfinite(float(cell)), row


@pytest.mark.parametrize("q", ["0.7", "0.99"])
def test_hulthen_deep_tunnelling_is_noconv(capsys, q):
    # the direct route (q = 0.7) misses unitarity by 0.31: noconv; at q = 0.99 the
    # connection route with Abel's closed-form t numerator gives a number, within
    # 1e-9 of the 100-digit oracle's T = 1.6385807830155186e-58
    code, out, err = run_cli(
        capsys,
        "eval", "--potential", "hulthen", "--v0", "8.74", "--a", "0.194", "--q", q,
        "--mass", "2.9", "--energy", "2.95",
    )
    assert (code, err) == (0, "")
    cells = out.splitlines()[1].split(",")[1:]
    if q == "0.7":
        assert cells == ["ERR:noconv"] * 3
        return
    t_ref, r_ref = mp_hulthen_probabilities(2.95, 2.9, 8.74, 0.99, 0.194, dps=100)
    assert float(cells[0]) == pytest.approx(t_ref, rel=1e-9)
    assert float(cells[1]) == pytest.approx(r_ref, rel=1e-9)


class TestOverflowCells:
    """Inputs whose intermediates leave double range give ERR:invalid cells on
    the points that overflow and numbers on the others, never a traceback."""

    @pytest.mark.parametrize(
        "argv, invalid_rows",
        [
            (("eval", *HULTHEN, "--energy", "1e300"), [True]),  # E^2 leaves double range
            (("eval", *HULTHEN, "--energy", "1e154"), [True]),  # complex exponentiation
            (
                ("eval", "--potential", "hulthen", "--v0", "1e300", "--a", "0.5", "--q", "0.9",
                 "--energy", "2"),
                [True],
            ),
            (
                ("sweep", "--potential", "delta", "--alpha", "1", "--var", "k",
                 "--lo", "1e200", "--hi", "1e300", "--points", "3"),
                [True, True, True],  # the sweep map: (hbar k)^2
            ),
            (
                ("sweep", "--potential", "eckart", "--v0", "1", "--a", "1e300",
                 "--var", "E", "--lo", "0.1", "--hi", "2", "--points", "3", "--methods", "exact"),
                [True, True, True],
            ),
            (
                ("sweep", *HULTHEN, "--var", "E", "--lo", "1.09", "--hi", "10", "--points", "3",
                 "--methods", "bound", "--hbar", "1e-200"),
                [True, True, True],  # division by zero in bound_integrals
            ),
            (
                ("sweep", *HULTHEN, "--var", "E", "--lo", "1.09", "--hi", "1e300", "--points", "3"),
                [False, True, True],
            ),
            (RECT_PHASE_ABOVE, [True]),  # e^{2iqa} of an infinite phase
            (RECT_PHASE_BELOW, [True]),  # e^{-2ika} of an infinite phase
            (ECKART_TURNING_POINT, [True]),  # E/v0 underflows at a turning point
            (HULTHEN_WINDOW, [True]),  # V(+-1) underflows to 0 < E
            (ECKART_ACTION, [True]),  # the action leaves double range
            (ECKART_NAN, [True]),  # inf - inf in the log-space shape of T
            (RECT_BOUND_NAN, [True]),  # inf / inf in the sech^2 exponent
            (
                ("sweep", "--potential", "rect", "--v0", "1", "--a", "1e160", "--var", "E",
                 "--lo", "2", "--hi", "1e300", "--points", "3"),
                [False, True, True],  # only 2ka of the two upper points overflows
            ),
        ],
        ids=["hulthen-E1e300", "hulthen-E1e154", "hulthen-v0", "delta-k", "eckart-a",
             "hulthen-bound-hbar", "hulthen-partly-finite", "rect-phase-above",
             "rect-phase-below", "eckart-turning-point", "hulthen-window", "eckart-action",
             "eckart-nan", "rect-bound-nan", "rect-phase-partly-finite"],
    )
    def test_overflow_is_invalid_cell(self, capsys, argv, invalid_rows):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == ""
        rows = out.strip().splitlines()[1:]
        assert len(rows) == len(invalid_rows)
        for row, invalid in zip(rows, invalid_rows):
            cells = row.split(",")[1:]
            if invalid:
                assert cells == ["ERR:invalid"] * len(cells)
            else:
                assert all(math.isfinite(float(cell)) for cell in cells)

    @pytest.mark.parametrize("v0, a", [("1e6", "1e-3"), ("1", "1e-300")])
    def test_overflowing_series_is_noconv_without_warnings(self, capsys, v0, a):
        # the 2F1 terms overflow (or start as NaN); pytest turns a RuntimeWarning into an error
        code, out, err = run_cli(
            capsys,
            "sweep", "--potential", "hulthen", "--v0", v0, "--a", a, "--q", "0.9",
            "--var", "E", "--lo", "1.09", "--hi", "10", "--points", "3", "--methods", "exact",
        )
        assert code == 0
        assert err == ""
        for row in out.strip().splitlines()[1:]:
            assert row.split(",")[1:] == ["ERR:noconv"] * 3


class TestResonancesCommand:
    def test_rectangular_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "resonances", "--potential", "rect", "--v0", "1", "--a", "1",
            "--var", "q", "--n", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,location,value,source,label,boundary"
        locations = [float(line.split(",")[1]) for line in lines[1:]]
        assert locations == pytest.approx([math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_eckart_locations(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "resonances", "--potential", "eckart", "--v0", "0", "--a", "1",
            "--var", "V0", "--n", "2",
        )
        assert code == 0
        locations = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert locations == pytest.approx([-1.0, -3.0])

    def test_delta_empty_with_reason(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "resonances", "--potential", "delta", "--alpha", "1",
            "--var", "k", "--kind", "transmission",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("#")
        assert "no transmission resonances" in lines[1]

    def test_unsupported_pair_suggests_numeric(self, capsys):
        code, _, err = run_cli(
            capsys,
            "resonances", "--potential", "hulthen", "--v0", "1", "--a", "0.5",
            "--q", "0.9", "--var", "E",
        )
        assert code == 2
        assert "--numeric" in err

    def test_numeric_infinite_bound_is_usage_error(self, capsys):
        # the scan's grid would be NaN: the bound itself is the usage error
        code, out, err = run_cli(
            capsys,
            "resonances", "--potential", "rect", "--v0", "1", "--a", "1", "--var", "q",
            "--numeric", "--lo", "0.1", "--hi", "inf",
        )
        assert (code, out) == (2, "")
        assert err == "error: need finite lo, hi and hi - lo, got (0.1, inf)\n"

    def test_numeric_scan_overflow_is_usage_error(self, capsys):
        # (hbar k)^2 overflows at the first grid point
        code, out, err = run_cli(
            capsys,
            "resonances", "--potential", "delta", "--alpha", "1", "--var", "k",
            "--numeric", "--lo", "1e200", "--hi", "1e300",
        )
        assert code == 2
        assert out == ""
        assert err == "error: exact evaluation failed at k=1e+200: ERR:invalid\n"

    @pytest.mark.parametrize(
        "run",
        json.loads((TESTS / "numeric_scan_golden.json").read_text()),
        ids=["hulthen-T", "hulthen-R", "rect-q", "eckart-V0"],
    )
    def test_numeric_scan_output_pinned(self, capsys, run):
        # stdout of each scan; the Hulthen scans take the connection route at q = 0.9
        code, out, err = run_cli(capsys, *run["argv"].split())
        assert (code, err) == (0, "")
        assert out == run["stdout"]

    def test_numeric_scan_grid_is_one_batch(self, capsys, monkeypatch):
        sizes = []
        exact = Hulthen.exact

        def recording(self, energies, ctx):
            sizes.append(len(energies))
            return exact(self, energies, ctx)

        monkeypatch.setattr(Hulthen, "exact", recording)
        code, _, _ = run_cli(
            capsys, "resonances", *HULTHEN, "--var", "E", "--numeric", "--lo", "1.09", "--hi", "10",
            "--grid-n", "256",
        )
        assert code == 0
        assert sizes[0] == 256  # one exact family call for the whole grid
        assert set(sizes[1:]) == {1}  # the golden-section refinement stays pointwise

    def test_numeric_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "resonances", "--potential", "rect", "--v0", "1", "--a", "1",
            "--var", "q", "--numeric", "--lo", "0.1", "--hi", "5", "--grid-n", "400",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        resonant = [row for row in rows if row.split(",")[4] == "resonance"]
        assert len(resonant) == 3


class TestFigure:
    def test_fig5_panel_files_and_manifest(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "figure", "fig5", "--out", str(tmp_path))
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "fig5_manifest.json",
            "fig5a.csv",
            "fig5b.csv",
            "fig5c.csv",
            "fig5d.csv",
        ]
        manifest = json.loads((tmp_path / "fig5_manifest.json").read_text())
        assert manifest["fig5a.csv"]["potential"]["v0"] == 1.0
        assert manifest["fig5d.csv"]["potential"]["v0"] == 100.0
        assert manifest["fig5a.csv"]["methods"] == ["exact", "wkb"]

    def test_fig1_panel_count_and_rows(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "figure", "fig1", "--out", str(tmp_path))
        assert code == 0
        csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert csvs == [f"fig1{letter}.csv" for letter in "abcde"]
        lines = (tmp_path / "fig1a.csv").read_text().splitlines()
        assert len(lines) == 501  # header + 500 rows
        first = lines[1].split(",")
        assert float(first[0]) < 0.05
        assert float(first[1]) < 1e-3

    def test_rerun_byte_identical(self, capsys, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "figure", "fig4", "--out", str(a_dir))
        run_cli(capsys, "figure", "fig4", "--out", str(b_dir))
        for name in ("fig4.csv", "fig4_manifest.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_unknown_preset_lists_options(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "figure", "nope", "--out", str(tmp_path))
        assert code == 2
        assert "fig11" in err


def test_readme_cli_commands_run(capsys, monkeypatch, tmp_path):
    """Every qscat command of the README's CLI block exits 0 without stderr."""
    readme = (TESTS.parent / "README.md").read_text()
    block = re.search(r"^## CLI$.*?^```bash$(.*?)^```$", readme, re.S | re.M).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("qscat ")]
    assert commands
    monkeypatch.chdir(tmp_path)  # the sweep writes its --out file here
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv


class TestArgumentErrors:
    """argparse's own errors, and a value such as -inf that argparse would take for an
    option, end in main's one usage-error line (exit 2), not in SystemExit."""

    @pytest.mark.parametrize("argv, line", [
        (NEGATIVE_INFINITE_ENERGY, "error: --energy must be finite, got -inf"),
        ((*NEGATIVE_INFINITE_ENERGY[:-1], "-nan"), "error: --energy must be finite, got nan"),
        (NEGATIVE_INFINITE_LO, "error: need finite lo, hi and hi - lo, got (-inf, 2.0)"),
        (NEGATIVE_INFINITE_ENERGY[:-2], "error: the following arguments are required: --energy"),
        (("eval", "--potential", "rect", "--v0", "1", "--a", "1", "--energy", "x"),
         "error: argument --energy: invalid float value: 'x'"),
    ])
    def test_one_usage_line(self, capsys, argv, line):
        assert run_cli(capsys, *argv) == (2, "", line + "\n")

    @pytest.mark.parametrize("lo", ["-1.5", "-1.5e0", "-2e-1"])
    def test_negative_finite_values_still_parse(self, capsys, lo):
        code, out, err = run_cli(
            capsys, "sweep", "--potential", "rect", "--v0", "1", "--a", "1", "--var", "E",
            "--lo", lo, "--hi", "2", "--points", "2",
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split(",")[0] == format_number(float(lo))

    def test_grid_beyond_memory(self, capsys):
        # 1e17 float64 values are 800 PB, beyond any address space: numpy refuses at once
        code, out, err = run_cli(
            capsys, "sweep", "--potential", "delta", "--alpha", "1", "--var", "k", "--lo", "1",
            "--hi", "2", "--points", "100000000000000000",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_help_still_exits_zero(self):
        result = subprocess.run([sys.executable, "-m", "qscat", "--help"], capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.startswith("usage: qscat")


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable, "-m", "qscat",
                "eval", "--potential", "delta", "--alpha", "1", "--energy", "0.5",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "energy,exact_T,exact_R,exact_defect"

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "qscat", "eval", "--potential", "bogus"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
