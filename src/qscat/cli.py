"""Command-line front end: single-point evaluation, CSV sweeps, resonance
listings, and figure-reproduction presets.

Exit codes: 0 success (including data-level physics errors, which render as
ERR:<code> cells), 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path

from .core import PhysicsContext
from .errors import QscatError, UnsupportedOperationError
from .potentials import Delta, Eckart, Hulthen, PotentialSpec, Rectangular
from .exact import eckart_reflection_paper
from .resonance import Kind, ResonanceListing, analytic_resonances, numeric_resonances
from .sweep import (METHOD_ORDER, MethodCells, SweepSpec, SweepTable, evaluate_table, run_sweep,
                    sweep_rows)

_USAGE_EXIT = 2
_IO_EXIT = 3

_MIN_SIG_DIGITS = 12


# ---------------------------------------------------------------------------
# number / table rendering

def format_number(x: float) -> str:
    """Shortest round-trip decimal, padded to at least 12 significant digits."""
    return _format_repr(repr(float(x)))


# reprs that are not a padded decimal
_SPECIAL_REPRS = {"inf": "ERR:nonfinite", "-inf": "ERR:nonfinite", "nan": "ERR:nonfinite",
                  "0.0": "0", "-0.0": "0"}


def _format_repr(s: str) -> str:
    """format_number of the float whose repr is s: its mantissa gets zeros after its
    last digit (and a point if it has none) up to 12 significant digits."""
    special = _SPECIAL_REPRS.get(s)
    if special is not None:
        return special
    mantissa, e, exponent = s.partition("e")
    missing = _MIN_SIG_DIGITS - len(mantissa.replace(".", "").lstrip("-0"))
    if missing <= 0:
        return s
    return mantissa + ("" if "." in mantissa else ".") + "0" * missing + e + exponent


# each method's CSV columns and the MethodCells field behind each
_COLUMNS = {
    "exact": (("exact_T", "transmission"), ("exact_R", "reflection"), ("exact_defect", "defect")),
    "wkb": (("wkb_T", "transmission"),),
    "bound": (("bound_T", "transmission"),),
}


def _method_columns(methods: frozenset[str]) -> list[str]:
    cols = [col for m in METHOD_ORDER if m in methods for col, _ in _COLUMNS[m]]
    if "exact" in methods and "bound" in methods:
        cols.append("bound_gap")
    return cols


def _format_column(cells: list) -> list[str]:
    """format_number of each cell of a column; a str cell (an ERR:<code>) stays as it
    is and None is ERR:na.  Each float is repr'd once.  Where its repr provably
    shows at least 12 significant digits it is already format_number's output and
    skips the padding: a repr holds at most 7 other characters (sign, point,
    e-324), and at most 2 when it has no sign, no exponent and no "0.0" prefix."""
    return [
        "ERR:na" if cell is None
        else cell if type(cell) is str
        else format_number(cell) if type(cell) is not float
        else s if len(s := repr(cell)) > 18
        or len(s) > 13 and s[0] != "-" and "e" not in s and s[:3] != "0.0"
        else _format_repr(s)
        for cell in cells
    ]


def _table_rows(table: SweepTable, methods: frozenset[str]) -> list[tuple[str, ...]]:
    """The CSV cells of each row of a sweep table (variable, each method's columns,
    bound_gap), rendered column by column; a method the table lacks is ERR:na."""
    n = len(table)
    columns = [table.values]
    for m in METHOD_ORDER:
        if m not in methods:
            continue
        cells = table.columns.get(m) or MethodCells([None] * n, None, None, ["na"] * n)
        codes = cells.codes
        failed = [i for i, code in enumerate(codes) if code is not None] if any(codes) else []
        for _, name in _COLUMNS[m]:
            column = getattr(cells, name) or [None] * n
            if failed:
                column = column[:]
                for i in failed:
                    column[i] = f"ERR:{codes[i]}"
            columns.append(column)
    if "exact" in methods and "bound" in methods:
        columns.append(table.bound_gap)
    return list(zip(*map(_format_column, columns)))


def render_sweep_csv(rows, methods: frozenset[str]) -> str:
    """Deterministic LF-terminated CSV for a sweep table, or a list of sweep rows."""
    if not isinstance(rows, SweepTable):
        rows = SweepTable.from_rows(rows, methods)
    lines = [",".join(["var"] + _method_columns(methods))]
    lines += map(",".join, _table_rows(rows, methods))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# shared flags

_POTENTIAL_CHOICES = ("delta", "rect", "eckart", "hulthen")


def _add_context_args(parser):
    parser.add_argument("--hbar", type=float, default=1.0, help="value of hbar (default 1)")
    parser.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")


def _add_potential_args(parser):
    parser.add_argument(
        "--potential", required=True, choices=_POTENTIAL_CHOICES, help="potential family"
    )
    parser.add_argument("--alpha", type=float, help="delta strength (energy*length)")
    parser.add_argument("--v0", type=float, help="barrier height / well depth")
    parser.add_argument("--a", type=float, help="length scale (rect/eckart) or rate (hulthen)")
    parser.add_argument("--q", type=float, help="hulthen screening parameter in (0,1)")
    parser.add_argument("--v-minus-inf", type=float, default=0.0, help="eckart V at x=-inf")
    parser.add_argument("--v-plus-inf", type=float, default=0.0, help="eckart V at x=+inf")
    _add_context_args(parser)


def _build_potential(args) -> PotentialSpec:
    def need(name):
        value = getattr(args, name.replace("-", "_"))
        if value is None:
            raise QscatError(f"--{name} is required for --potential {args.potential}")
        return value

    if args.potential == "delta":
        return Delta(alpha=need("alpha"))
    if args.potential == "rect":
        return Rectangular(v0=need("v0"), a=need("a"))
    if args.potential == "eckart":
        return Eckart(
            v_minus_inf=args.v_minus_inf,
            v_plus_inf=args.v_plus_inf,
            v0=need("v0"),
            a=need("a"),
        )
    return Hulthen(v0=need("v0"), a=need("a"), q=need("q"))


def _build_ctx(args) -> PhysicsContext:
    return PhysicsContext(hbar=args.hbar, mass=args.mass)


def _expand_spec_files(argv: list[str]) -> list[str]:
    """Replace each '--spec FILE' with the flag tokens read from FILE.

    The file holds one 'key=value' pair per line (mirroring flag names, no
    leading dashes); blank lines and '#' comments are skipped, and boolean
    switches take true/false values.  Tokens are inserted in place, so flags
    given after --spec override the file.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] == "--spec":
            if i + 1 >= len(argv):
                raise QscatError("--spec needs a file path")
            try:
                text = Path(argv[i + 1]).read_text()
            except OSError as exc:  # a spec file that cannot be read is a usage error
                raise QscatError(str(exc)) from None
            for line in text.splitlines():
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise QscatError(f"bad line in spec file (want key=value): {line!r}")
                key, value = key.strip(), value.strip()
                if value.lower() in ("true", "false"):
                    if value.lower() == "true":
                        out.append(f"--{key}")
                else:
                    out += [f"--{key}", value]
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


# ---------------------------------------------------------------------------
# eval / wkb / bound

def _cmd_eval(args) -> int:
    potential = _build_potential(args)
    ctx = _build_ctx(args)
    methods = frozenset(args.method or ["exact"])
    convention = getattr(args, "r_convention", None)
    if convention and not isinstance(potential, Eckart):
        raise QscatError("--r-convention applies to --potential eckart only")
    header = ["energy"] + _method_columns(methods)
    cells = list(_table_rows(evaluate_table(potential, [args.energy], methods, ctx), methods)[0])
    if convention:
        header.append(f"exact_R_{convention}")
        cells.append(_reflection_cell(potential, args.energy, ctx, convention))
    print(",".join(header))
    print(",".join(cells))
    return 0


def _reflection_cell(potential, energy, ctx, convention) -> str:
    """The --r-convention cell: the literature reflection value, or ERR:<code> where it
    raises, ERR:invalid where its intermediates leave double range or it is not finite."""
    try:
        value = eckart_reflection_paper(potential, energy, ctx, convention)
    except QscatError as exc:
        return f"ERR:{exc.code}"
    except ArithmeticError:
        value = math.nan
    return format_number(value) if math.isfinite(value) else "ERR:invalid"


# ---------------------------------------------------------------------------
# sweep

def _cmd_sweep(args) -> int:
    spec = SweepSpec(
        potential=_build_potential(args),
        variable=args.var,
        lo=args.lo,
        hi=args.hi,
        points=args.points,
        methods=frozenset(args.methods.split(",")),
        ctx=_build_ctx(args),
        fixed={} if args.energy is None else {"energy": args.energy},
        log_spaced=args.log_spaced,
    )
    text = render_sweep_csv(run_sweep(spec), spec.methods)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, newline="")
    return 0


# ---------------------------------------------------------------------------
# resonances

def _resonance_table(listing: ResonanceListing) -> str:
    lines = ["kind,location,value,source,label,boundary"]
    for r in listing.reports:
        lines.append(
            ",".join(
                [
                    r.kind.value,
                    format_number(r.location),
                    format_number(r.value),
                    r.source.value,
                    r.label,
                    "1" if r.at_boundary else "0",
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    if listing.reason:
        text += f"# {listing.reason}\n"
    return text


def _cmd_resonances(args) -> int:
    potential = _build_potential(args)
    ctx = _build_ctx(args)
    kind = Kind(args.kind)
    if args.numeric:
        if args.lo is None or args.hi is None:
            raise QscatError("--numeric requires --lo and --hi")
        fixed = {} if args.energy is None else {"energy": args.energy}
        spec = SweepSpec(potential, args.var, args.lo, args.hi, args.grid_n, ctx=ctx, fixed=fixed)
        curve = _probability_curve(spec, kind)
        reports = numeric_resonances(curve, (args.lo, args.hi), args.grid_n, args.refine_tol, kind)
        listing = ResonanceListing(tuple(reports))
    else:
        try:
            listing = analytic_resonances(potential, args.var, args.n, ctx, kind, args.energy)
        except UnsupportedOperationError as exc:
            raise UnsupportedOperationError(f"{exc} (try --numeric)") from None
    sys.stdout.write(_resonance_table(listing))
    return 0


def _probability_curve(spec: SweepSpec, kind: Kind):
    """Exact T or R at a list of values of the spec's variable, as one sweep batch."""

    def curve(xs: list[float]) -> list[float]:
        exact = sweep_rows(spec, xs).columns["exact"]
        for x, code in zip(xs, exact.codes):
            if code is not None:
                raise QscatError(f"exact evaluation failed at {spec.variable}={x!r}: ERR:{code}")
        return exact.transmission if kind is Kind.TRANSMISSION else exact.reflection

    return curve


# ---------------------------------------------------------------------------
# figure presets

_K0_LADDER = (1.0, 2.0, 10.0, 100.0, 1000.0)

# preset -> (panel letters, one parameter value per panel, the panel's SweepSpec)
_PRESETS = {
    "fig1": ("abcde", _K0_LADDER, lambda k0: SweepSpec(Delta(k0), "k", 0.02 * k0, 10.0 * k0, 500)),
    "fig3": ("abcde", _K0_LADDER,
             lambda k0: SweepSpec(Rectangular(0.5 * k0**2, 1.0), "q", 0.0025, 10.0, 4000)),
    "fig3a": ("abcd", (1.0, 2.0, 10.0, 100.0),
              lambda a: SweepSpec(Rectangular(0.5, a), "q", 10.0 / a / 4000.0, 10.0 / a, 4000)),
    "fig4": (("",), (1.0,), lambda v0: SweepSpec(
        Rectangular(v0, 1.0), "E", 1.02, 20.0, 500, methods=frozenset({"exact", "bound"}))),
    "fig5": ("abcd", (1.0, 10.0, 50.0, 100.0), lambda v0: SweepSpec(
        Rectangular(v0, 1.0), "E", 0.005 * v0, 0.995 * v0, 200, methods=frozenset({"exact", "wkb"}))),
    # k-inf = 1, k+inf = 2 at E = 2 with V-inf = 1.5, V+inf = 0 (m = hbar = 1)
    "fig7": ("ab", (1.0, 2.0), lambda a: SweepSpec(
        Eckart(1.5, 0.0, 0.0, a), "V0", -10.5, 2.0, 501, fixed={"energy": 2.0})),
    "fig10": ("ab", (0.5, 1.0), lambda a: SweepSpec(Hulthen(1.0, a, 0.9), "E", 1.09, 10.0, 100)),
    "fig11": ("abcd", (1.0, 2.0, 10.0, 50.0), lambda v0: SweepSpec(
        Hulthen(v0, 0.5, 0.9), "E", 0.02, 1.0, 200, methods=frozenset({"wkb"}))),
}
FIGURE_PRESETS = tuple(_PRESETS)


def _figure_panels(name: str) -> list[tuple[str, SweepSpec]]:
    letters, values, spec = _PRESETS[name]
    return [(f"{name}{letter}", spec(value)) for letter, value in zip(letters, values)]


def _spec_manifest(spec: SweepSpec) -> dict:
    return {
        "potential": {"kind": type(spec.potential).__name__.lower(), **asdict(spec.potential)},
        "variable": spec.variable,
        "lo": spec.lo,
        "hi": spec.hi,
        "points": spec.points,
        "methods": sorted(spec.methods),
        "hbar": spec.ctx.hbar,
        "mass": spec.ctx.mass,
        "fixed": dict(spec.fixed),
        "log_spaced": spec.log_spaced,
    }


def _cmd_figure(args) -> int:
    if args.preset not in FIGURE_PRESETS:
        raise QscatError(f"unknown preset {args.preset!r}; available: {', '.join(FIGURE_PRESETS)}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for panel, spec in _figure_panels(args.preset):
        text = render_sweep_csv(run_sweep(spec), spec.methods)
        (out_dir / f"{panel}.csv").write_text(text, newline="")
        manifest[f"{panel}.csv"] = _spec_manifest(spec)
    (out_dir / f"{args.preset}_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline=""
    )
    return 0


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one usage-error line from main, not a usage block and SystemExit
        raise QscatError(message)


# a negative number that argparse would take for an option: -inf, -nan, -1e5
_NEGATIVE_NUMBER = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """'--flag -x' as '--flag=-x' for each negative number -x."""
    out: list[str] = []
    for token in argv:
        if _NEGATIVE_NUMBER.match(token) and out and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qscat",
        description="Transmission/reflection for four canonical 1D quantum potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="single-point T/R evaluation")
    p_eval.set_defaults(run=_cmd_eval)
    _add_potential_args(p_eval)
    p_eval.add_argument("--energy", type=float, required=True)
    p_eval.add_argument(
        "--method",
        action="append",
        choices=METHOD_ORDER,
        help="repeatable; defaults to exact",
    )
    p_eval.add_argument(
        "--r-convention",
        choices=("paper", "asymptotic"),
        help="append the literature Eckart reflection value under this convention",
    )

    for method in ("wkb", "bound"):
        p_alias = sub.add_parser(method, help=f"eval with the {method} method preselected")
        p_alias.set_defaults(run=_cmd_eval, method=[method])
        _add_potential_args(p_alias)
        p_alias.add_argument("--energy", type=float, required=True)

    p_sweep = sub.add_parser("sweep", help="grid sweep to CSV")
    p_sweep.set_defaults(run=_cmd_sweep)
    _add_potential_args(p_sweep)
    p_sweep.add_argument("--var", required=True, choices=("k", "q", "E", "V0"))
    p_sweep.add_argument("--lo", type=float, required=True)
    p_sweep.add_argument("--hi", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--methods", default="exact", help="comma list of exact,wkb,bound")
    p_sweep.add_argument("--energy", type=float, help="fixed energy (V0 sweeps)")
    p_sweep.add_argument("--log-spaced", action="store_true")
    p_sweep.add_argument("--out", help="output CSV path (stdout when omitted)")

    p_res = sub.add_parser("resonances", help="analytic or numeric resonance listing")
    p_res.set_defaults(run=_cmd_resonances)
    _add_potential_args(p_res)
    p_res.add_argument("--var", required=True, choices=("k", "q", "E", "V0"))
    p_res.add_argument("--kind", default="transmission", choices=("transmission", "reflection"))
    p_res.add_argument("--n", type=int, default=3, help="number of analytic resonances")
    p_res.add_argument("--energy", type=float, help="fixed energy where needed")
    p_res.add_argument("--numeric", action="store_true", help="grid scan + refinement")
    p_res.add_argument("--lo", type=float)
    p_res.add_argument("--hi", type=float)
    p_res.add_argument("--grid-n", type=int, default=256)
    p_res.add_argument("--refine-tol", type=float, default=1e-8)

    p_fig = sub.add_parser("figure", help="figure-reproduction presets")
    p_fig.set_defaults(run=_cmd_figure)
    p_fig.add_argument("preset", help=f"one of {', '.join(FIGURE_PRESETS)}")
    p_fig.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the one place where a QscatError (an argparse error, or a
    non-finite --energy, among them) or a MemoryError (a grid larger than memory)
    becomes a usage error (exit 2) and an OSError an I/O error (exit 3)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(_attach_negative_values(_expand_spec_files(argv)))
        if not math.isfinite(getattr(args, "energy", None) or 0.0):
            raise QscatError(f"--energy must be finite, got {args.energy!r}")
        return args.run(args)
    except (QscatError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _IO_EXIT


if __name__ == "__main__":
    sys.exit(main())
