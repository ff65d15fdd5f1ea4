"""Command-line front end: run refinements, studies, and mesh exports.

Outputs are deterministic: identical invocations produce byte-identical
mesh, CSV and SVG files.  Files are written atomically (temp + rename).
Exit codes: 0 success, 2 usage error, 3 runaway refinement (node cap),
1 any other failure.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np

from . import analysis, approx, engine
from .engine import GreedyConfig, MeshFormatError, RunawayRefinementError, StopRule
from .fields import get_field
from .geometry import QuadForm, sigma_batch


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".anisomesh-")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_p(text: str) -> float:
    try:
        p = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid Lp exponent {text!r}")
    if not p >= 1.0:
        raise argparse.ArgumentTypeError(f"p must satisfy 1 <= p <= inf, got {p}")
    return p


def _parse_checkpoints(text: str) -> list[int]:
    try:
        values = [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid checkpoint list {text!r}")
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError("checkpoints must be strictly increasing")
    return values


def _parse_form(text: str) -> QuadForm:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("form must be 'a20,a11,a02'")
    try:
        return QuadForm(*(float(s) for s in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_field(label: str):
    try:
        return get_field(label)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_run_flags(sp):
    sp.add_argument("--field", type=_parse_field, required=True,
                    help="catalog field label")
    sp.add_argument("--p", type=_parse_p, default=GreedyConfig.p,
                    help="Lp exponent (accepts 'inf'; default 2)")
    sp.add_argument("--operator", choices=approx.OPERATORS,
                    default=GreedyConfig.operator)
    sp.add_argument("--decision", choices=engine.DECISIONS, default=GreedyConfig.decision)
    sp.add_argument("--initial", choices=engine.INITIAL_MESHES,
                    default=GreedyConfig.initial)
    sp.add_argument("--node-cap", type=int, default=GreedyConfig.node_cap)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anisomesh",
        description="Greedy bisection meshes adapted to a scalar field.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="greedy refinement to a stop rule",
                         epilog=f"trace CSV: {analysis.TRACE_HEADER}")
    _add_run_flags(run)
    stop = run.add_mutually_exclusive_group(required=True)
    stop.add_argument("--target-n", type=int, help="stop at this leaf count")
    stop.add_argument("--eta", type=float, help="stop when all leaf errors <= eta")
    stop.add_argument("--levels", type=int,
                      help="refine every leaf to this generation")
    run.add_argument("--mesh-out", required=True, help="mesh text output path")
    run.add_argument("--trace-out", required=True, help="trace CSV output path")

    conv = sub.add_parser("converge", help="N*error study against the hessian tau-norm",
                          epilog=f"convergence CSV: {analysis.CONVERGENCE_HEADER}")
    _add_run_flags(conv)
    conv.add_argument("--checkpoints", type=_parse_checkpoints,
                      default=[64, 256, 1024])
    conv.add_argument("--csv-out", required=True)

    sig = sub.add_parser("sigma-study", epilog=f"sigma CSV: {analysis.SIGMA_HEADER}",
                         help="sigma_q washout under uniform refinement (quadratic fields)")
    sig.add_argument("--field", type=_parse_field, required=True)
    sig.add_argument("--levels", type=int, default=5,
                     help="3-bisection levels (leaf count x8 per level)")
    sig.add_argument("--initial", choices=engine.INITIAL_MESHES,
                     default=GreedyConfig.initial)
    sig.add_argument("--csv-out", required=True)

    ren = sub.add_parser("render", help="render a mesh file to SVG")
    ren.add_argument("mesh", help="mesh text file")
    ren.add_argument("--svg-out", required=True)
    ren.add_argument("--color-by", choices=("none", "sigma", "error"),
                     default="none")
    ren.add_argument("--form", type=_parse_form,
                     help="a20,a11,a02 quadratic form for sigma coloring")
    ren.add_argument("--field", type=_parse_field,
                     help="catalog field for error coloring "
                     "(or sigma coloring when quadratic)")
    ren.add_argument("--p", type=_parse_p, default=GreedyConfig.p)
    ren.add_argument("--operator", choices=approx.OPERATORS,
                     default=GreedyConfig.operator)
    return parser


def _config(args, stop: StopRule) -> GreedyConfig:
    return GreedyConfig(p=args.p, operator=args.operator,
                        decision=args.decision, stop=stop, initial=args.initial,
                        node_cap=args.node_cap)


def cmd_run(args) -> int:
    if args.target_n is not None:
        stop = StopRule("target-count", args.target_n)
    elif args.eta is not None:
        stop = StopRule("error-threshold", args.eta)
    else:
        stop = StopRule("generation-levels", args.levels)
    forest, trace = engine.greedy_run(args.field, _config(args, stop))
    _atomic_write(args.mesh_out, engine.mesh_to_text(forest))
    _atomic_write(args.trace_out, analysis.trace_csv(trace))
    print(f"N={forest.n_leaves} global_error={trace[-1].global_error!r}")
    return 0


def cmd_converge(args) -> int:
    stop = StopRule("target-count", max(args.checkpoints))
    points = analysis.convergence_study(args.field, _config(args, stop),
                                        args.checkpoints)
    _atomic_write(args.csv_out, analysis.convergence_csv(points))
    print(f"final_ratio={points[-1].ratio!r}")
    return 0


def cmd_sigma_study(args) -> int:
    stats = analysis.sigma_study(args.field, roots=args.initial, levels=args.levels)
    _atomic_write(args.csv_out, analysis.sigma_csv(stats))
    print(f"final_fraction_above={stats[-1].fraction_above!r}")
    return 0


# three-stop linear color map (blue -> pale yellow -> red)
_CMAP = np.array([(43, 131, 186), (255, 255, 191), (215, 25, 28)])
_SVG_SLICE = 1024  # polygons written at once: bounds the byte matrix
# one polygon's bytes, a 0 for each of its numbers' 9 and a 1 for its fill's 7
_POLYGON = np.frombuffer((b'<polygon points="%s,%s %s,%s %s,%s" fill="%s" stroke="#000000" '
                          b'stroke-width="0.5"/>\n') % ((b"\0" * 9,) * 6 + (b"\1" * 7,)),
                         np.uint8)
_NUMBERS, _FILL = np.flatnonzero(_POLYGON == 0), np.flatnonzero(_POLYGON == 1)
# ASCII digit tables, indexed by the integer part and by the thousandths
_INT = np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy() + 48  # "0000" ... "9999"
_FRAC = np.c_[np.full(1000, 46, np.uint8), _INT[:1000, 1:]]  # ".000" ... ".999"
_INT[:, :3][np.logical_and.accumulate(_INT[:, :3] == 48, axis=1)] = 0  # "0" ... "9999"


def _color(t) -> np.ndarray:
    """Colors ``#rrggbb`` of the values ``t`` (clipped to [0, 1]) on the color
    map, one row of 7 ASCII bytes per value."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    if np.isnan(t).any():
        raise ValueError("cannot color a NaN value")
    upper = (t > 0.5).astype(int)  # which half of the map
    lo, hi = _CMAP[upper], _CMAP[upper + 1]
    rgb = np.rint(lo + (hi - lo) * (2.0 * t - upper)[:, None]).astype(int)  # ties to even
    nibbles = np.stack([rgb >> 4, rgb & 15], axis=-1).reshape(-1, 6)
    return np.c_[np.full(len(rgb), 35, np.uint8),
                 np.frombuffer(b"0123456789abcdef", np.uint8)[nibbles]]


def _decimal(x) -> np.ndarray:
    """The bytes of ``'%.3f' % x`` for each x in [-0.0005, 1000.0005], 9 per
    value (sign, integer digits, point and decimals), 0 where dropped.

    Where ``x * 1000`` rounded onto a half, the sign of that product's exact
    error (a Veltkamp split: 1000 has 7 bits) picks the side, and only a true
    tie rounds half to even, as ``%`` does; -0.0 keeps its sign.
    """
    p = x * 1000.0
    q = np.rint(p)
    c = x * 134217729.0  # 2**27 + 1
    high = c - (c - x)
    error = (high * 1000.0 - p) + (x - high) * 1000.0  # x * 1000 - p, exactly
    q = np.where((np.abs(p - q) == 0.5) & (error != 0.0), p + np.copysign(0.5, error), q)
    whole, frac = np.divmod(np.abs(q).astype(np.int64), 1000)
    sign = np.signbit(x) * np.uint8(45)
    return np.concatenate([sign[..., None], _INT[whole], _FRAC[frac]], axis=-1)


def mesh_to_svg(forest, values=None, legend: str | None = None) -> str:
    """SVG 1.1 document with one polygon per leaf.

    The mesh bounding box maps to a 1000x1000 box with the y axis flipped
    to standard math orientation; ``values`` (one per leaf, in leaf-id
    order) drive the fill color, and ``legend`` labels the color bar.
    Raises ValueError when the extent overflows.  Each slice of polygons is
    one byte matrix, a row per polygon, of ``_decimal``'s coordinates, which
    read as ``'%.3f' %`` writes them, and ``_color``'s fills.
    """
    verts = forest.leaf_vertex_array()
    vmin = verts.reshape(-1, 2).min(axis=0).tolist()
    vmax = verts.reshape(-1, 2).max(axis=0).tolist()
    span = max(vmax[0] - vmin[0], vmax[1] - vmin[1], 1e-300)  # Python floats: inf, no warning
    if not np.isfinite(span):
        raise ValueError(f"mesh extent overflows: the vertices span {vmin} to {vmax}")
    scale = 1000.0 / span
    xy = np.empty_like(verts)
    xy[..., 0] = (verts[..., 0] - vmin[0]) * scale
    xy[..., 1] = 1000.0 - (verts[..., 1] - vmin[1]) * scale

    height = 1080 if values is not None else 1000
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 1000 {height}" width="1000" height="{height}">',
    ]
    fills = np.broadcast_to(np.frombuffer(b"none\0\0\0", np.uint8), (len(verts), 7))
    if values is not None:
        values = np.asarray(values, dtype=float)
        if len(values) != len(verts):
            raise ValueError("need one color value per leaf")
        lo, hi = float(values.min()), float(values.max())
        spread = hi - lo
        fills = _color((values - lo) / spread if spread > 0 else np.full(len(values), 0.5))
    coords = xy.reshape(-1, 6)
    for s in range(0, len(coords), _SVG_SLICE):
        part = coords[s:s + _SVG_SLICE]
        m = np.repeat(_POLYGON[None], len(part), axis=0)
        m[:, _NUMBERS] = _decimal(part).reshape(len(part), -1)
        m[:, _FILL] = fills[s:s + _SVG_SLICE]
        lines.append(m[m != 0].tobytes().decode("ascii")[:-1])
    if values is not None:
        for k, fill in enumerate(_color(np.arange(64) / 63)):
            lines.append(f'<rect x="{200 + 9.375 * k:.3f}" y="1020" '
                         f'width="9.375" height="30" fill="{fill.tobytes().decode()}"/>')
        label = legend or "value"
        lines.append(f'<text x="195" y="1044" font-size="20" '
                     f'text-anchor="end">{lo:.6g}</text>')
        lines.append(f'<text x="805" y="1044" font-size="20">{hi:.6g}</text>')
        lines.append(f'<text x="500" y="1072" font-size="20" '
                     f'text-anchor="middle">{label}</text>')
    lines.append("</svg>\n")
    return "\n".join(lines)


def _sigma_form(args):
    """The form that sigma-study or sigma coloring reads: ``--form``, else the field's."""
    form = getattr(args, "form", None)
    return getattr(args.field, "form", None) if form is None else form


def cmd_render(args) -> int:
    if args.color_by == "error" and args.field is None:  # before the mesh is read
        print("error: error coloring needs --field", file=sys.stderr)
        return 2
    forest = engine.load_mesh(args.mesh)
    values = None
    legend = None
    if args.color_by == "sigma":
        values = sigma_batch(_sigma_form(args), forest.leaf_vertex_array())
        legend = "sigma_q"
    elif args.color_by == "error":
        values = approx.local_errors(forest.leaf_vertex_array(), args.field,
                                     args.p, args.operator)
        legend = f"local L{args.p:g} error"
    _atomic_write(args.svg_out, mesh_to_svg(forest, values, legend))
    print(f"wrote {args.svg_out} ({forest.n_leaves} polygons)")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    for name in ("mesh_out", "trace_out", "csv_out", "svg_out"):
        path = getattr(args, name, None)
        # checked before any work, and named as given rather than by its temp file
        if path is not None and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            print(f"error: cannot write {path!r}: its directory does not exist",
                  file=sys.stderr)
            return 1
    if args.command == "sigma-study" or getattr(args, "color_by", None) == "sigma":
        form = _sigma_form(args)
        if form is None or not form.is_positive_definite:
            what = ("sigma-study needs a quadratic --field" if args.command == "sigma-study"
                    else "sigma coloring needs --form or a quadratic --field")
            print(f"error: {what}: a positive-definite form is needed", file=sys.stderr)
            return 2
    if args.command == "converge":
        try:  # a usage error, reported before any work
            analysis.require_convex(args.field, engine.initial_mesh(args.initial))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    handler = {
        "run": cmd_run,
        "converge": cmd_converge,
        "sigma-study": cmd_sigma_study,
        "render": cmd_render,
    }[args.command]
    try:
        return handler(args)
    except RunawayRefinementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MeshFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
