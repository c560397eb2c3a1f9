"""Command-line front end: matrix inspection, flow runs, CSV and SVG emission.

Exit codes: 0 success, 2 argument error, 3 input parse error (or an
unwritable output path or a closed stdout), 4 numeric range error or out of
memory.  Right after parsing, before any input is read, ``main`` refuses
an unwritable destination, a link that leads into a missing folder or to
itself among them, and then one that names an input or another destination
(exit 2); ``flow`` and ``yau`` refuse ``--svg`` on a non-planar input right
after loading it.

Every number it writes follows the one formatter rule of
:func:`polygon.format_floats`.

``main`` parses a plain argv from a table read once from the argparse tree
(``_plain_args``): a subcommand, then exact option strings, each but
``--solid-target`` followed by one value that does not start with ``-``,
every value converting and among its choices, and every required flag
given.  That takes 3-5 us where argparse takes 33-68 (2-vCPU Xeon VM,
Python 3.11).  argparse parses every other argv (abbreviations,
``--flag=value``, ``-h``, values that look negative, bad values, missing
flags), so every refusal, its message and its exit code are argparse's.

A subcommand imports only the modules it runs: ``integrate`` loads the RK4
module :mod:`polyflow.integrate`, ``yau`` and ``integrate --target`` load
:mod:`polyflow.yau_flow`, and ``--svg`` loads :mod:`polyflow.svg`, each in
the function that first calls it.  ``matrix``, ``flow`` and ``analyze``
load none of the three.  orjson is loaded by the first JSON input of a
run that writes a float array, to parse it, or else by the first such
array: ``integrate`` without ``--csv`` writes none, so it parses its JSON
inputs with ``json`` alone (``json_only``) and never loads orjson.

A job is milliseconds of numpy, so a call is mostly its process start-up:
on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4) importing numpy takes
70-110 ms, and ``from polyflow import cli`` about 38 ms without a bytecode
cache and 11 ms with one.  Every numeric range
error, ``FlowRangeError`` and ``DivergenceError`` among them, is an
``OverflowError`` (exit 4).
"""
from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import stat
import sys
import warnings
from itertools import islice

import numpy as np

from . import circulant, spectral_flow
from .polygon import (
    Polygon,
    PolygonFormatError,
    energy,
    format_floats,
    format_samples,
    load_polygon,
)


class CliArgumentError(ValueError):
    """Bad flag combination or value; maps to exit code 2."""


T0, RATIO, COUNT = 0.05, 1.6, 8  # the default schedule of flow and yau


def geometric_schedule(t0=T0, ratio=RATIO, count=COUNT) -> tuple[float, ...]:
    """The sample times ``t0 * ratio**j`` for j = 0..count-1."""
    return tuple(t0 * ratio**j for j in range(count))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyflow",
        description="Semi-discrete polyharmonic and Yau difference flows on closed polygons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_matrix = sub.add_parser(
        "matrix",
        help="print the difference-matrix power, flow matrix, and eigenvalues",
        description="Prints three lines: the first row of M^m, the first row "
        "of the flow matrix (-1)^(m+1) M^m, and the flow eigenvalues.",
    )
    p_matrix.add_argument("--n", type=_positive_int, required=True, help="vertex count")
    p_matrix.add_argument("--m", type=_positive_int, required=True, help="flow order")

    def add_schedule(p):
        p.add_argument("--times", help="comma-separated strictly increasing times; "
                       "a negative first time needs the = form, --times=-0.2,0.1")
        p.add_argument("--t0", type=_positive_float, default=T0, help="first geometric time")
        p.add_argument("--ratio", type=_positive_float, default=RATIO, help="geometric ratio > 1")
        p.add_argument("--count", type=_positive_int, default=COUNT, help="number of samples")

    def add_render(p):
        p.add_argument("--csv", dest="csv_path", help="write the trajectory table here")
        p.add_argument("--svg", dest="svg_path", help="write the figure here")
        p.add_argument("--stroke-width", type=_positive_float, default=None)

    p_flow = sub.add_parser("flow", help="evolve a polygon by the homogeneous flow")
    p_flow.add_argument("--input", dest="input_path", required=True)
    p_flow.add_argument("--m", type=_positive_int, required=True)
    add_schedule(p_flow)
    add_render(p_flow)

    p_yau = sub.add_parser("yau", help="flow a polygon toward a target polygon")
    p_yau.add_argument("--input", dest="input_path", required=True)
    p_yau.add_argument("--target", dest="target_path", required=True)
    p_yau.add_argument("--m", type=_positive_int, required=True)
    p_yau.add_argument(
        "--strategy", choices=("duplicate", "midpoint"), default="midpoint",
        help="vertex-count reconciliation strategy",
    )
    p_yau.add_argument("--solid-target", action="store_true", help="draw the target undashed")
    add_schedule(p_yau)
    add_render(p_yau)

    p_analyze = sub.add_parser("analyze", help="spectral report for a polygon")
    p_analyze.add_argument("--input", dest="input_path", required=True)
    p_analyze.add_argument("--m", type=_positive_int, required=True)
    p_analyze.add_argument("--json", dest="json_path", help="write the report here instead of stdout")

    p_int = sub.add_parser("integrate", help="RK4 oracle run, reports deviation from the closed form")
    p_int.add_argument("--input", dest="input_path", required=True)
    p_int.add_argument("--m", type=_positive_int, required=True)
    p_int.add_argument("--target", dest="target_path", help="integrate the difference flow toward this polygon")
    p_int.add_argument("--dt", type=_positive_float, default=1e-3)
    p_int.add_argument("--T", dest="t_final", type=_positive_float, default=1.0)
    p_int.add_argument("--csv", dest="csv_path", help="write the RK4 trajectory table here")
    p_int.add_argument(
        "--strategy", choices=("duplicate", "midpoint"), default="midpoint",
        help="vertex-count reconciliation strategy (with --target)",
    )
    return parser


def resolve_schedule(args: argparse.Namespace) -> tuple[float, ...]:
    if args.times is not None:
        try:
            times = tuple(float(tok) for tok in args.times.split(","))
        except ValueError:
            raise CliArgumentError(f"could not parse --times {args.times!r}") from None
    else:
        try:
            times = geometric_schedule(args.t0, args.ratio, args.count)
        except OverflowError:  # float ** raises where float * would give inf
            raise CliArgumentError("time schedule must be finite") from None
    if not all(math.isfinite(t) for t in times):
        raise CliArgumentError("time schedule must be finite")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise CliArgumentError("time schedule must be strictly increasing")
    return times


def load_flow_polygon(path, json_only: bool = False) -> Polygon:
    """The polygon at ``path``, of n >= 3 vertices.  ``json_only`` is
    :func:`polygon.load_polygon_json`'s: a run that writes no float array
    parses JSON with ``json`` alone, and so never imports orjson."""
    poly = load_polygon(path, json_only=json_only)
    if poly.n < 3:
        raise PolygonFormatError(f"flows need n >= 3 vertices, got {poly.n}")
    return poly


def _write_trajectory_rows(fh, times, samples, rows=None) -> None:
    """The trajectory table, one ``write`` per sample.  The samples are
    polygons, or an RK4 trajectory's state blocks (see ``format_samples``).
    ``rows`` holds each sample's ``format_samples`` rows when they have been
    made already; without it ``format_samples`` formats the samples a block
    at a time as they are written.  A sample's text is one join over its
    lines' pieces (stamp, vertex index, row, newline): the index and newline
    pieces are laid in once per vertex count, and the stamps and rows by
    one slice assignment each per sample."""
    first = samples[0]
    p = first.shape[-1] if isinstance(first, np.ndarray) else first.p
    fh.write(",".join(["t", "vertex_index"] + [f"x{i + 1}" for i in range(p)]) + "\n")
    if rows is None:
        rows = format_samples(samples)
    pieces = []
    for stamp, sample in zip(format_floats(times), rows):
        k = len(sample)
        if len(pieces) != 4 * k:
            pieces = ["\n"] * (4 * k)
            pieces[1::4] = [f",{j}," for j in range(k)]
        pieces[::4] = [stamp] * k
        pieces[2::4] = sample
        fh.write("".join(pieces))


def write_trajectory_csv(path, times, samples, rows=None) -> None:
    """The trajectory table in a file, through a 64 KiB buffer: an RK4 table
    of a few MB takes one system ``write`` per 64 KiB, not per 8 KiB."""
    with open(path, "w", newline="\n", buffering=2**16) as fh:
        _write_trajectory_rows(fh, times, samples, rows)


def _power_of_m(n: int, m: int) -> circulant.CirculantMatrix:
    """``M^m``, with its size and exact-entry refusals as argument errors."""
    try:
        return circulant.power_of_m(n, m)
    except (ValueError, OverflowError) as exc:
        raise CliArgumentError(str(exc)) from exc


def cmd_matrix(args: argparse.Namespace) -> int:
    power = _power_of_m(args.n, args.m)
    sign = circulant.flow_sign(args.m)
    eigenvalues = circulant.eigen_system(args.n, args.m)
    print(" ".join(str(b) for b in power.first_row))
    print(" ".join(str(sign * b) for b in power.first_row))
    print(" ".join(format_floats(eigenvalues)))
    return 0


_INPUT_FLAGS = (("--input", "input_path"), ("--target", "target_path"))
_OUTPUT_FLAGS = (("--csv", "csv_path"), ("--svg", "svg_path"), ("--json", "json_path"))


def _check_paths(args: argparse.Namespace) -> None:
    """Refuse an output path that cannot be opened for writing (exit 3),
    then one that names an input or another output (exit 2).  One lookup
    per path: ``lstat``, ``stat`` where a link leads, the folder's ``stat``
    only for a file not made yet, and ``access`` for an output.  A file is
    keyed by its device and inode, one not made yet by its folder's and its
    own name, and a dangling link by the file that writing through it makes."""
    named, clash = {}, None  # file key -> the first flag and path naming that file
    for flag, dest in _INPUT_FLAGS + _OUTPUT_FLAGS:
        path, writes = vars(args).get(dest), (flag, dest) in _OUTPUT_FLAGS
        if path == "" and writes:
            raise FileNotFoundError("cannot write to an empty path")
        if not path:
            continue
        made, st = path, None  # the name a new file is made under; the file
        try:
            st = os.lstat(path)
            if stat.S_ISLNK(st.st_mode):
                st = os.stat(path)
        except OSError as exc:
            if st is not None:  # a link that leads nowhere, or in a loop to no name at all
                made = None if exc.errno == errno.ELOOP else os.path.realpath(path)
            st = None
        key = checked = None  # the file's key; the path ``access`` checks, None if unwritable
        if st is not None:
            key, checked = (st.st_dev, st.st_ino), None if stat.S_ISDIR(st.st_mode) else path
        elif made:
            folder = os.path.dirname(made) or "."
            try:
                st = os.stat(folder)
            except OSError:
                pass
            if st is not None and stat.S_ISDIR(st.st_mode):
                key, checked = (st.st_dev, st.st_ino, os.path.basename(made)), folder
            elif writes:
                raise NotADirectoryError(f"cannot write {path}: {folder} is not a directory")
        if writes and not (checked and os.access(checked, os.W_OK)):
            raise PermissionError(f"cannot write {path}")
        if writes and key in named:
            clash = clash or f"{flag} {path} names the same file as {' '.join(named[key])}"
        named.setdefault(key, (flag, path))
    if clash:
        raise CliArgumentError(clash)


def _emit_samples(args, times, solution, initial, target=None, dash_target=True):
    """Sample the solution at ``times`` and write the CSV and SVG asked for,
    or the CSV table on stdout when neither is; ``main`` has checked both
    destinations and ``cmd_flow`` that a figure's polygons are planar.  Each
    sample is formatted once: with a figure, its vertex rows are made first
    and go into both writers, so the table is the same bytes with or without
    it; without one, the table formats a block of samples at a time.  The
    figure is rendered before the table is written, so that a figure refused
    for a number beyond float range leaves no file."""
    samples = solution.polygon_at(times)
    rows = list(format_samples(samples)) if args.svg_path else None
    if args.svg_path:
        from . import svg

        document = svg.render(samples, initial, target, args.stroke_width, dash_target, rows)
    if args.csv_path:
        write_trajectory_csv(args.csv_path, times, samples, rows)
        print(f"wrote {args.csv_path}")
    if args.svg_path:
        svg.write(document, args.svg_path)
        print(f"wrote {args.svg_path}")
    if not args.csv_path and not args.svg_path:
        _write_trajectory_rows(sys.stdout, times, samples)


def cmd_flow(args: argparse.Namespace) -> int:
    """``flow``, and ``yau`` toward its ``--target``."""
    times = resolve_schedule(args)
    x0 = load_flow_polygon(args.input_path)
    if args.svg_path and x0.p != 2:
        raise CliArgumentError(f"--svg needs planar polygons (p = 2), got p = {x0.p}")
    if args.command == "flow":
        _emit_samples(args, times, spectral_flow.flow_solution(x0, args.m), x0)
    else:
        problem, solution = _flow_toward_target(args, x0)
        _emit_samples(args, times, solution, problem.initial, problem.target, not args.solid_target)
    return 0


def _flow_toward_target(args: argparse.Namespace, x0: Polygon, json_only: bool = False):
    """Load ``--target`` and reconcile x0 with it: the problem and its exact
    solution.  Polygons of different dimensions are an input error."""
    from .yau_flow import yau_flow_between

    target = load_flow_polygon(args.target_path, json_only)
    try:
        return yau_flow_between(x0, target, args.m, args.strategy)
    except ValueError as exc:
        raise PolygonFormatError(str(exc)) from exc


def _json_floats(cells, pad: str) -> str:
    """A non-empty list of formatted numbers in the indent-2 layout, its
    items at ``pad``."""
    items = f",\n{pad}".join(cells)
    return f"[\n{pad}{items}\n{pad[2:]}]"


def _json_polygon(cells: list, p: int) -> str:
    """A polygon from its vertices' cells, or null for no cells, as a member of the report."""
    if not cells:
        return "null"
    vertices = map(",\n        ".join, zip(*[iter(cells)] * p))
    rows = "\n      ],\n      [\n        ".join(vertices)
    return f'{{\n    "dim": {p},\n    "vertices": [\n      [\n        {rows}\n      ]\n    ]\n  }}'


def _analyze_json(x0: Polygon, m: int, source: str) -> str:
    """The ``analyze`` report of x0 as ``json.dumps(report, indent=2)`` writes
    it, laid out by its schema: ``indent`` sends ``json`` to its pure-Python
    encoder, which costs twice as much.

    After every library error, a number beyond float range raises
    FlowRangeError, naming the input ``source``.  Only the energy and the
    mode masses can be one: ``decompose`` refuses a non-finite centroid or
    spectrum, ``flow_eigenvalues`` raises OverflowError instead of returning
    inf and ``Polygon`` refuses non-finite vertices.

    Every number is a cell of one ``format_floats`` call over all arrays,
    sliced apart: the centroid is the first p cells of alpha, and the
    verdict's rate is its mode's rate cell, bitwise ``flow_eigenvalue``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dec = spectral_flow.decompose(x0)
        verdict = spectral_flow.classify_self_similar(dec, m)
        total = energy(x0, m)
        rates = circulant.flow_eigenvalues(x0.n, m)
        try:
            k_fwd, fwd = spectral_flow.rescaled_limit(dec, m, "forward")
            k_anc, anc = spectral_flow.rescaled_limit(dec, m, "ancient")
        except spectral_flow.DegenerateModeError:
            k_fwd = fwd = k_anc = anc = None
    if not (math.isfinite(total) and np.isfinite(dec.masses).all()):
        raise spectral_flow.FlowRangeError(
            f"the analyze report of {source} holds a number beyond float range"
        )
    limits = () if fwd is None else (fwd.vertices, anc.vertices)  # no cells: null limits
    cells = iter(format_floats(np.concatenate((dec.alpha, dec.beta, dec.masses, rates, total, *limits), axis=None)))
    h, p = len(rates), x0.p
    alpha_cells, beta_cells, mass_cells, rate_cells, (energy_cell,), fwd_cells, anc_cells = (
        list(islice(cells, size)) for size in (h * p, h * p, h, h, 1, x0.n * p, x0.n * p)
    )
    alphas, betas = (zip(*[iter(c)] * p) for c in (alpha_cells, beta_cells))
    modes = ",\n".join(
        f'    {{\n      "k": {k},\n      "mass": {mass},\n      "rate": {rate},\n'
        f'      "alpha": {_json_floats(alpha, " " * 8)},\n'
        f'      "beta": {_json_floats(beta, " " * 8)}\n    }}'
        for k, (mass, rate, alpha, beta) in enumerate(zip(mass_cells, rate_cells, alphas, betas))
    )
    if verdict is not None:
        verdict = (
            f'{{\n    "mode": {verdict.mode},\n    "rate": {rate_cells[verdict.mode]},\n'
            f'    "trivial": {"true" if verdict.is_trivial else "false"}\n  }}'
        )
    members = (
        ("n", x0.n),
        ("p", p),
        ("m", m),
        ("energy", energy_cell),
        ("centroid", _json_floats(alpha_cells[:p], "    ")),
        ("modes", f"[\n{modes}\n  ]"),
        ("self_similar", verdict),
        ("dominant_mode", k_fwd),
        ("forward_limit", _json_polygon(fwd_cells, p)),
        ("ancient_mode", k_anc),
        ("ancient_limit", _json_polygon(anc_cells, p)),
    )
    body = ",\n".join(f'  "{key}": {"null" if text is None else text}' for key, text in members)
    return f"{{\n{body}\n}}"


def cmd_analyze(args: argparse.Namespace) -> int:
    x0 = load_flow_polygon(args.input_path)
    text = _analyze_json(x0, args.m, args.input_path)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.json_path}")
    else:
        print(text)
    return 0


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as the one line ``warning: <message>`` on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def cmd_integrate(args: argparse.Namespace) -> int:
    from . import integrate

    if not math.isfinite(args.t_final / args.dt):
        raise CliArgumentError("the step count --T / --dt must be finite")
    json_only = not args.csv_path  # no table, no float array written: orjson stays unloaded
    x0 = load_flow_polygon(args.input_path, json_only)
    if args.m > circulant.M_MAX:  # refused as `matrix` refuses it, before any work; the integrator builds M^m
        _power_of_m(x0.n, args.m)
    if args.target_path:
        problem, exact = _flow_toward_target(args, x0, json_only)
        x0 = problem.initial
        kind = integrate.YauKind(m=args.m, target=problem.target)
        reference = exact.polygon_at(args.t_final)
    else:
        kind = integrate.PolyharmonicKind(m=args.m)
        reference = spectral_flow.solve(x0, args.m, args.t_final)
    config = integrate.IntegratorConfig(dt=args.dt, t_final=args.t_final, kind=kind)
    with warnings.catch_warnings():  # restores the filters and the display on the way out
        warnings.simplefilter("always", integrate.StiffnessWarning)
        warnings.showwarning = _warning_line
        trajectory = integrate.integrate(x0, config, keep_steps=bool(args.csv_path))
    if args.csv_path:
        write_trajectory_csv(args.csv_path, trajectory.times, trajectory.blocks)
        print(f"wrote {args.csv_path}")
    deviation = float(
        abs(trajectory.final().vertices - reference.vertices).max()
    )
    # repr, not format_floats: a run without --csv never imports orjson
    print(f"max |rk4 - exact| at T={args.t_final!r}: {deviation!r}")
    return 0


_HANDLERS = {
    "matrix": cmd_matrix,
    "flow": cmd_flow,
    "yau": cmd_flow,
    "analyze": cmd_analyze,
    "integrate": cmd_integrate,
}


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The argparse tree and its plain-argv table, built on the first
    ``main`` call and reused: parsing leaves no state on either."""
    parser = build_parser()
    return parser, _argv_table(parser)


def _argv_table(parser: argparse.ArgumentParser) -> dict:
    """Per subcommand, read from the argparse tree: each option string's
    (dest, conversion, choices), with conversion None for a ``store_true``
    flag, the defaults and the required dests.  A subcommand with another
    kind of action is left out, so argparse parses it."""
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, sub in subparsers.choices.items():
        options, defaults, required = {}, {subparsers.dest: name}, set()
        for action in sub._actions:
            if type(action) is argparse._StoreTrueAction:
                spec = (action.dest, None, None)
            elif type(action) is argparse._StoreAction and action.nargs is None and action.option_strings:
                spec = (action.dest, action.type or str, action.choices)
            elif type(action) is argparse._HelpAction:
                continue
            else:
                break
            options.update(dict.fromkeys(action.option_strings, spec))
            defaults[action.dest] = action.default
            if action.required:
                required.add(action.dest)
        else:
            table[name] = (options, defaults, required)
    return table


def _plain_args(table: dict, argv) -> argparse.Namespace | None:
    """The namespace argparse makes of ``argv``, if it is plain: a
    subcommand, then exact option strings, each but a ``store_true`` flag
    followed by one value that does not start with ``-``, every value
    converted and among its choices, every required flag given.  A repeated
    flag keeps its last value.  None for any other argv."""
    if not argv or argv[0] not in table:
        return None
    options, defaults, required = table[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = options.get(flag)
        if spec is None:
            return None
        dest, convert, choices = spec
        if convert is None:
            given[dest] = True
            continue
        value = next(tokens, None)
        if not isinstance(value, str) or value.startswith("-"):
            return None
        try:
            value = convert(value)
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return None
        if choices is not None and value not in choices:
            return None
        given[dest] = value
    if not required <= given.keys():
        return None
    return argparse.Namespace(**{**defaults, **given})


def main(argv=None) -> int:
    parser, table = _parser()
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(table, argv)
    if args is None:
        args = parser.parse_args(argv)
    try:
        _check_paths(args)
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, whatever its buffering, not at exit
        return code
    except CliArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout was closed: the exit-time flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    except (PolygonFormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:  # FlowRangeError and DivergenceError among them
        print(f"numeric range error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"resource error: out of memory{detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
