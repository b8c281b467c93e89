"""Command-line surface: file ingestion, verdict reports, sample tables.

Input files are UTF-8 JSON.  A symbolic curve file carries ``dimension``,
``parameter``, ``components`` (expression strings) and ``domain``; a
synthesized curve file (as written by ``synthesize``) carries the curvature
recipe instead and is re-integrated on ingestion, so frame extraction on it
is exact rather than sample-limited.  Every command ends in :func:`_report`,
the one helper that builds a report body (command, arguments echo, input
digest, then the command's sections) and writes it.  Reports open with one
``#`` header line (the only place a timestamp appears); the rest of the body
is deterministic, with floats printed to 17 significant digits.  Exit codes:
0 verdict computed (true or false), 2 input/parse error, 3 hypothesis/family
violation, 4 numerical failure.  A library error's class states its category
(``category`` in :mod:`nullcartan.errors`); :func:`main` prints it in one JSON
diagnostic line and exits with its code.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bundled import NULL_QUINTIC
from .constructions import (
    DEFAULT_BERTRAND_TOL,
    DEFAULT_EVOLUTE_POINTS,
    DEFAULT_SPHERE_TOL,
    DEFAULT_STEP,
    MAX_TABLE_FLOATS,
    CurvatureProfile,
    bertrand_mate,
    evolute,
    involute,
    pseudo_spherical_test,
    synthesize,
)
from .curve import (
    DEFAULT_CLASSIFY_POINTS,
    DEFAULT_TABLE_ROWS,
    Curve,
    chebyshev_grid,
    classify,
    pseudo_arc_reparam,
)
from .errors import HypothesisError, InputError, NullCartanError
from .frame import (
    CURVATURE_FLOOR,
    NULL_CHAIN_GATE,
    PSEUDO_ARC_GATE,
    cartan_frame_at,
    cartan_frames,
    frame_rows,
    stencil_residuals,
)
from .metric import DEFAULT_TOL

# exit code of each error category (the ``category`` of an error class)
_EXIT_CODES = {"input": 2, "hypothesis": 3, "family": 3, "numerical": 4}
# a "#" report line escapes the backslash and each character str.splitlines breaks on
_LINE_ESCAPES = {ord(c): repr(c)[1:-1] for c in "\\\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


# ---------------------------------------------------------------------------
# Serialization: 17-significant-digit floats, deterministic bodies
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if x != x or x in (float("inf"), float("-inf")):
            return "null"
        return f"{x:.17g}"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return "null"
    return json.dumps(str(x))


def _render_json(obj, indent=0):
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {_render_json(v, indent + 2)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if flat:
            return "[" + ", ".join(_fmt(v) for v in seq) + "]"
        items = [f"{pad}  {_render_json(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _fmt(obj)


def _text(x):
    """A value as a CSV report writes it: a string as itself, else as JSON."""
    return x if isinstance(x, str) else _fmt(x)


def _table_csv(table):
    import csv  # here, not at the top: only a CSV report needs it on a cold run

    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(table["columns"])
    for row in table["rows"]:
        writer.writerow([_text(v) for v in row])
    return buf.getvalue()


def _flatten(prefix, obj, out):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append((prefix, "[" + " ".join(_text(v) for v in obj) + "]"))
    else:
        out.append((prefix, _text(obj)))


def write_report(body, args, pure_json=False):
    """Emit the report atomically to --output or stdout."""
    header = (f"# nullcartan {body.get('command', '')} v{__version__} "
              f"generated {datetime.now(timezone.utc).isoformat()}\n")
    if pure_json or args.format == "json":
        text = ("" if pure_json else header) + _render_json(body) + "\n"
    else:
        table = body.pop("table", None)
        scalars = []
        _flatten("", body, scalars)
        lines = [header.rstrip("\n")]
        lines += [f"# {k}: {v}".translate(_LINE_ESCAPES) for k, v in scalars]
        text = "\n".join(lines) + "\n"
        if table is not None:
            text += _table_csv(table)
    out_path = getattr(args, "output", None)
    if out_path:
        import tempfile  # here, not at the top: only --output needs it on a cold run

        directory = os.path.dirname(os.path.abspath(out_path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nullcartan-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, out_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Input files
# ---------------------------------------------------------------------------

def _read_json(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        decoded = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8: {exc}") from None
    # the parser and the digest both skip the "#" lines, such as a report's
    # timestamped header, and keep every other byte
    text = "".join(line for line in decoded.splitlines(keepends=True)
                   if not line.lstrip().startswith("#"))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    return data, f"sha256:{digest}"


def _require(data, key, path):
    if key not in data:
        raise InputError(f"{path}: missing field {key!r}")
    return data[key]


def _integer(data, key, path):
    value = _require(data, key, path)
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{path}: field {key!r} must be an integer, got {value!r}") from None


def _number(value, key, path):
    try:
        if isinstance(value, bool):
            raise ValueError
        return float(value)
    except (TypeError, ValueError):
        raise InputError(f"{path}: field {key!r} must be a number, got {value!r}") from None


def _expressions(data, key, path):
    value = _require(data, key, path)
    if not isinstance(value, list):
        raise InputError(
            f"{path}: field {key!r} must be a list of expression strings, got {value!r}")
    return [str(v) for v in value]


def _interval(data, key, path):
    value = _require(data, key, path)
    try:
        if any(isinstance(v, bool) for v in value):
            raise ValueError
        a, b = (float(v) for v in value)
    except (TypeError, ValueError):
        raise InputError(
            f"{path}: field {key!r} must be a pair of numbers [a, b], got {value!r}") from None
    return a, b


def _recipe(data, path, step=None):
    """The synthesis recipe of a spec: its curvature profile (the parameter
    defaults to ``t``), its interval and, unless ``step`` is given, its step."""
    profile = CurvatureProfile.from_strings(
        _integer(data, "dimension", path), _expressions(data, "curvatures", path),
        data.get("parameter", "t"))
    interval = _interval(data, "interval", path)
    if step is None:
        step = _number(data.get("step", DEFAULT_STEP), "step", path)
    return profile, interval, step


def load_curve(path):
    """Curve from a curve spec file (symbolic or synthesized)."""
    data, digest = _read_json(path)
    if data.get("kind") == "synthesized" or "curvatures" in data:
        return synthesize(*_recipe(data, path)), data, digest
    n = _integer(data, "dimension", path)
    components = _expressions(data, "components", path)
    if len(components) != n:
        raise InputError(
            f"{path}: {len(components)} components for dimension {n}")
    domain = _interval(data, "domain", path)
    curve = Curve.from_strings(components, data.get("parameter", "s"), domain)
    return curve, data, digest


def _grid_size(args, data, default_points, n):
    """--grid, else the file's grid_density, else the command default.

    Every command's grid goes through here.  A grid is refused before
    anything is allocated on it when the frame extraction's jets there,
    points * n^2 * (n + 3) floats in dimension n, exceed MAX_TABLE_FLOATS.
    """
    if args.grid is not None:
        points = args.grid
    elif data.get("grid_density") is not None:
        points = _integer(data, "grid_density", args.file)
    else:
        points = default_points
    if points < 1:
        raise InputError(f"grid size must be positive, got {points}")
    size = points * n * n * (n + 3)
    if size > MAX_TABLE_FLOATS:
        raise InputError(
            f"a grid of {points} points needs {size} floats of frame jets in "
            f"dimension {n}; the limit is {MAX_TABLE_FLOATS}")
    return points


def _grid_for(args, curve, data, default_points, uniform=False):
    points = _grid_size(args, data, default_points, curve.dimension)
    a, b = curve.domain
    if uniform:
        return np.linspace(a, b, points)
    return chebyshev_grid(a, b, points)


def _report(command, args, digest, **sections):
    """Write the report of ``command`` and return exit code 0.  The body is
    the command name, the echo of its arguments and the digest of its input,
    then ``sections`` in the order given."""
    echo = {k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "output") and v is not None}
    body = {"command": command, "arguments": echo, "input_digest": digest, **sections}
    write_report(body, args)
    return 0


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_classify(args):
    curve, data, digest = load_curve(args.file)
    grid = _grid_for(args, curve, data, DEFAULT_CLASSIFY_POINTS)
    report = classify(curve, grid, args.tol)
    return _report(
        "classify", args, digest,
        tolerances={"classification": args.tol},
        verdicts={"family": report.family},
        summary={
            "dimension": curve.dimension,
            "nullity_sequence": list(report.report.nullity_sequence),
            "index_sequence": list(report.report.index_sequence),
            "degeneration_degree": report.report.degeneration_degree,
            "grid": list(report.grid),
        },
        table={
            "columns": ["i", "r_i", "q_i"],
            "rows": [[i, r, q] for i, (r, q) in enumerate(
                zip(report.report.nullity_sequence, report.report.index_sequence))],
        })


def _frame_table(frame):
    """Report table of a frame of values on a grid: t, then its rows (the
    point and the frame vectors in :func:`frenet_system` order), then the
    curvatures."""
    m, _, n = frame.rows.shape
    columns = ["t"] + [f"x{j + 1}" for j in range(n)]
    columns += [f"{name}_{j + 1}" for name in frame_rows(n) for j in range(n)]
    columns += [f"k{i + 1}" for i in range(n - 3)]
    data = np.column_stack([frame.t, frame.rows.reshape(m, -1), *frame.curvatures])
    return {"columns": columns, "rows": data.tolist()}


def cmd_frame(args):
    curve, data, digest = load_curve(args.file)
    grid = _grid_for(args, curve, data, 61, uniform=True)
    frame = cartan_frames(curve, grid).value
    table = _frame_table(frame)
    summary = {"dimension": curve.dimension, "samples": len(table["rows"]),
               "max_closure_residual": float(np.max(frame.closure_residual))}
    if len(grid) >= 7:
        res = stencil_residuals(frame)
        summary["frenet_residuals"] = dict(res.per_equation)
        summary["max_frenet_residual"] = res.overall
    return _report(
        "frame", args, digest,
        tolerances={"null_chain_gate": NULL_CHAIN_GATE, "pseudo_arc_gate": PSEUDO_ARC_GATE,
                    "curvature_floor": CURVATURE_FLOOR},
        summary=summary, table=table)


def cmd_bertrand(args):
    curve, data, digest = load_curve(args.file)
    grid = _grid_for(args, curve, data, DEFAULT_CLASSIFY_POINTS)
    tolerances = {"curvature": args.tol}
    try:
        result = bertrand_mate(curve, args.mu, grid, args.tol)
    except HypothesisError as exc:
        if exc.condition != "k1 = k2 = 0":
            raise
        verdict = exc.evidence
        return _report("bertrand", args, digest, tolerances=tolerances,
                       verdicts={"bertrand": False},
                       summary={"max_k1": verdict.max_k1, "max_k2": verdict.max_k2,
                                "reason": str(exc)})
    report = result.report
    return _report(
        "bertrand", args, digest, tolerances=tolerances,
        verdicts={"bertrand": report.verdict},
        summary={
            "mu": args.mu,
            "max_k1": report.max_k1,
            "max_k2": report.max_k2,
            "alignment_defect": report.alignment_defect,
            "correspondence_offset": report.correspondence_offset,
        },
        table={
            "columns": ["s", "sbar"] + [f"mate_x{j + 1}" for j in range(curve.dimension)],
            "rows": [[s, sb, *pt] for s, sb, pt in
                     zip(report.grid, report.sbar, result.sampled.points)],
        })


def cmd_sphere(args):
    curve, data, digest = load_curve(args.file)
    grid = _grid_for(args, curve, data, DEFAULT_CLASSIFY_POINTS)
    report = pseudo_spherical_test(curve, grid, args.tol)
    n = curve.dimension
    a_cols = [f"a{i + 1}" for i in range(n - 4)]
    return _report(
        "sphere", args, digest,
        tolerances={"constancy": args.tol},
        verdicts={"is_spherical": report.is_spherical,
                  "last_coefficient_nonzero": report.last_coefficient_nonzero},
        summary={
            "radius": report.radius,
            "center": None if report.center is None else list(report.center),
            "max_radius_spread": report.max_radius_spread,
            "max_center_spread": report.max_center_spread,
            "sphere_equation_residual": report.sphere_equation_residual,
        },
        table={
            "columns": ["t"] + a_cols + ["radius_sq"] + [f"center_x{j + 1}" for j in range(n)],
            "rows": [[t, *a, r, *c] for t, a, r, c in
                     zip(report.grid, report.a_values, report.radius_sq, report.centers)],
        })


def cmd_evolute(args):
    curve, data, digest = load_curve(args.file)
    grid = _grid_for(args, curve, data, DEFAULT_EVOLUTE_POINTS, uniform=True)
    result = evolute(curve, grid)
    summary = {
        "speed_defect": result.speed_defect,
        "min_abs_slope": result.min_abs_slope,
    }
    if args.roundtrip:
        offset = 1.0 / cartan_frame_at(curve, grid[0]).curvatures[2]
        inv = involute(result.curve, float(grid[0]), grid, arc_offset=offset)
        sup = float(np.max(np.abs(inv.sampled.points - curve.vec_jets(grid, 0).value)))
        summary["roundtrip_arc_offset"] = offset
        summary["roundtrip_sup_distance"] = sup
    return _report(
        "evolute", args, digest, summary=summary,
        table={
            "columns": ["t"] + [f"E_x{j + 1}" for j in range(curve.dimension)],
            "rows": [[t, *p] for t, p in zip(result.grid, result.sampled.points)],
        })


def cmd_involute(args):
    curve, data, digest = load_curve(args.file)
    grid = _grid_for(args, curve, data, DEFAULT_EVOLUTE_POINTS, uniform=True)
    result = involute(curve, args.t0, grid, arc_offset=args.s0)
    arc = result.curve.arc_length(np.array(result.grid))
    return _report(
        "involute", args, digest,
        summary={"t0": args.t0, "arc_offset": args.s0},
        table={
            "columns": ["t", "s"] + [f"I_x{j + 1}" for j in range(curve.dimension)],
            "rows": [[t, s, *p] for t, s, p in zip(result.grid, arc, result.sampled.points)],
        })


def cmd_synthesize(args):
    data, digest = _read_json(args.file)
    profile, interval, step = _recipe(data, args.file, args.step)
    points = _grid_size(args, data, DEFAULT_TABLE_ROWS, profile.dimension)
    curve = synthesize(profile, interval, step)
    grid = np.linspace(curve.domain[0], curve.domain[1], points)
    return _report(
        "synthesize", args, digest,
        kind="synthesized",
        dimension=curve.dimension,
        parameter=profile.parameter,
        curvatures=[str(k) for k in data["curvatures"]],
        interval=[curve.domain[0], curve.domain[1]],
        step=step,
        max_gram_defect=curve.max_gram_defect,
        table=_frame_table(curve.frame_table(grid)))


def cmd_reparam(args):
    curve, data, digest = load_curve(args.file)
    points = _grid_size(args, data, DEFAULT_TABLE_ROWS, curve.dimension)
    result = pseudo_arc_reparam(curve, grid_density=points, tol=args.tol)
    return _report(
        "reparam", args, digest,
        summary={"unit_speed_defect": result.unit_speed_defect,
                 "pseudo_arc_span": [result.sampled.grid[0], result.sampled.grid[-1]]},
        table={
            "columns": ["t", "sbar"],
            "rows": [[t, s] for t, s in zip(result.table_t, result.table_s)],
        })


def cmd_fixture(args):
    write_report(dict(NULL_QUINTIC), args, pure_json=True)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors end in a JSON input diagnostic."""

    def error(self, message):
        sys.exit(_diagnostic(InputError(f"{self.prog}: {message}")))


def _finite(text):
    """A finite number option value, such as --mu, --t0 or --s0."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not abs(value) < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _tolerance(text):
    """A --tol value: a positive finite number."""
    value = _finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def build_parser():
    parser = _Parser(
        prog="nullcartan",
        description="Cartan frames, curvatures, classification sequences and "
                    "theorem-level constructions for null curves in index-2 "
                    "pseudo-Euclidean spaces.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, file_help="curve spec file (JSON)", tol=DEFAULT_TOL,
               tol_help="classification tolerance"):
        p.add_argument("file", help=file_help)
        p.add_argument("--grid", type=int, default=None,
                       help="number of grid points (default per command)")
        if tol is not None:
            p.add_argument("--tol", type=_tolerance, default=tol,
                           help=f"{tol_help} (default {tol:g})")
        p.add_argument("--format", choices=("csv", "json"), default="json",
                       help="report format (default json)")
        p.add_argument("--output", default=None,
                       help="write the report to PATH (atomic; default stdout)")

    p = sub.add_parser("classify", help="nullity/index sequences and family flag")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("frame", help="Cartan frame samples and Frenet residuals")
    common(p, tol=None)  # the frame gates are fixed; the report names them
    p.set_defaults(func=cmd_frame)

    p = sub.add_parser("bertrand", help="Bertrand verdict and offset mate")
    common(p, tol=DEFAULT_BERTRAND_TOL, tol_help="curvature-vanishing tolerance")
    p.add_argument("--mu", type=_finite, default=1.0,
                   help="offset along W3 (nonzero, default 1)")
    p.set_defaults(func=cmd_bertrand)

    p = sub.add_parser("sphere", help="pseudo-sphere membership test")
    common(p, tol=DEFAULT_SPHERE_TOL, tol_help="radius/center constancy tolerance")
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("evolute", help="evolute of a dimension-6 family curve")
    common(p, tol=None)
    p.add_argument("--roundtrip", action="store_true",
                   help="also unwind the evolute and report the sup distance")
    p.set_defaults(func=cmd_evolute)

    p = sub.add_parser("involute", help="involute of a spacelike curve")
    common(p, tol=None)
    p.add_argument("--t0", type=_finite, required=True,
                   help="base point parameter for the arc length")
    p.add_argument("--s0", type=_finite, default=0.0,
                   help="arc-length offset added to s(t) (default 0)")
    p.set_defaults(func=cmd_involute)

    p = sub.add_parser("synthesize",
                       help="integrate the Frenet system for a curvature profile")
    common(p, file_help="curvature profile file (JSON)", tol=None)
    p.add_argument("--step", type=float, default=None,
                   help=f"integration step (default from file or {DEFAULT_STEP:g})")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("reparam", help="pseudo-arc reparametrization table")
    common(p)
    p.set_defaults(func=cmd_reparam)

    p = sub.add_parser("fixture", help="print the bundled demonstration curve")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_fixture)

    return parser


def _diagnostic(exc):
    """Print the JSON diagnostic line of a library error; return the exit
    code of its category."""
    payload = {"category": exc.category, "error": type(exc).__name__,
               "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)
    return _EXIT_CODES[exc.category]


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the grid gates refuse what a silenced overflow or NaN leaves behind,
        # so stderr carries the JSON diagnostic alone
        with np.errstate(all="ignore"):
            return args.func(args)
    except NullCartanError as exc:
        return _diagnostic(exc)


if __name__ == "__main__":
    sys.exit(main())
