"""CLI subcommands: runs, studies, rendering, exit codes, determinism."""

import os
import subprocess
import sys

import numpy as np
import pytest

import anisomesh
from anisomesh import cli
from anisomesh.approx import local_error
from anisomesh.cli import main, mesh_to_svg
from anisomesh.engine import (GreedyConfig, MeshFormatError, RefinementForest, StopRule,
                             greedy_run, load_mesh)
from anisomesh.fields import ScalarField, get_field
from anisomesh.geometry import Triangle


def run_cli(*args):
    return main(list(args))


class TestRun:
    def test_target_n_writes_mesh(self, tmp_path, capsys):
        mesh = tmp_path / "mesh.txt"
        trace = tmp_path / "trace.csv"
        code = run_cli("run", "--field", "disk", "--p", "2", "--target-n", "64",
                       "--mesh-out", str(mesh), "--trace-out", str(trace))
        assert code == 0
        assert load_mesh(mesh).n_leaves == 64
        out = capsys.readouterr().out
        assert "N=64" in out and "global_error=" in out
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("step,")
        assert len(lines) == 65  # header + records at N = 1..64

    def test_eta_stop(self, tmp_path):
        mesh = tmp_path / "mesh.txt"
        trace = tmp_path / "trace.csv"
        code = run_cli("run", "--field", "disk", "--p", "inf", "--eta", "1e-3",
                       "--mesh-out", str(mesh), "--trace-out", str(trace))
        assert code == 0
        # for p = inf the traced global error is the max leaf error
        last = trace.read_text().splitlines()[-1].split(",")
        assert float(last[2]) <= 1e-3
        from anisomesh.approx import local_error

        forest = load_mesh(mesh)
        for t in map(Triangle, forest.leaf_vertex_array()):
            assert local_error(t, get_field("disk"), float("inf")) <= 1e-3

    def test_levels_stop(self, tmp_path):
        mesh = tmp_path / "m.txt"
        code = run_cli("run", "--field", "aniso-2", "--levels", "4",
                       "--initial", "unit-square",
                       "--mesh-out", str(mesh), "--trace-out", str(tmp_path / "t.csv"))
        assert code == 0
        assert load_mesh(mesh).n_leaves == 2 * 16

    def test_determinism(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            run_cli("run", "--field", "aniso-10", "--p", "2", "--target-n", "128",
                    "--mesh-out", str(d / "mesh.txt"),
                    "--trace-out", str(d / "trace.csv"))
            texts.append((d / "mesh.txt").read_bytes()
                         + (d / "trace.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_node_cap_exit_3(self, tmp_path, capsys):
        code = run_cli("run", "--field", "disk", "--target-n", "100",
                       "--node-cap", "10",
                       "--mesh-out", str(tmp_path / "m.txt"),
                       "--trace-out", str(tmp_path / "t.csv"))
        assert code == 3
        assert "node cap" in capsys.readouterr().err

    def test_target_n_over_node_cap_exit_3_before_refining(self, tmp_path, capsys,
                                                          monkeypatch):
        calls = []
        real = RefinementForest.bisect_node
        monkeypatch.setattr(RefinementForest, "bisect_node",
                            lambda *args: calls.append(args) or real(*args))
        code = run_cli("run", "--field", "disk", "--target-n", "3000",
                       "--node-cap", "5000",
                       "--mesh-out", str(tmp_path / "m.txt"),
                       "--trace-out", str(tmp_path / "t.csv"))
        assert code == 3
        assert "node cap 5000" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "m.txt").exists()

    def test_levels_over_node_cap_exit_3(self, tmp_path, capsys):
        code = run_cli("run", "--field", "disk", "--levels", "40",
                       "--mesh-out", str(tmp_path / "m.txt"),
                       "--trace-out", str(tmp_path / "t.csv"))
        assert code == 3
        assert "exceeds the node cap" in capsys.readouterr().err

    @pytest.mark.parametrize("stop", [("--target-n", "64"), ("--eta", "1e-3")])
    def test_non_finite_field_exit_1(self, tmp_path, capsys, monkeypatch, stop):
        def hole(x, y):
            return np.where((x > 0.3) & (x < 0.4) & (y < 0.2), np.nan, x * x + y * y)

        monkeypatch.setattr(cli, "get_field",
                            lambda label: ScalarField(label, hole))
        code = run_cli("run", "--field", "hole", "--initial", "unit-square", *stop,
                       "--mesh-out", str(tmp_path / "m.txt"),
                       "--trace-out", str(tmp_path / "t.csv"))
        assert code == 1
        assert "field 'hole' is not finite on triangle" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_seed_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--field", "disk", "--target-n", "4", "--seed", "1",
                    "--mesh-out", str(tmp_path / "m.txt"),
                    "--trace-out", str(tmp_path / "t.csv"))
        assert exc.value.code == 2

    def test_unknown_field_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--field", "blancmange", "--target-n", "4",
                    "--mesh-out", str(tmp_path / "m.txt"),
                    "--trace-out", str(tmp_path / "t.csv"))
        assert exc.value.code == 2
        assert "unknown field" in capsys.readouterr().err

    def test_usage_error_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--field", "disk",
                    "--mesh-out", str(tmp_path / "m.txt"),
                    "--trace-out", str(tmp_path / "t.csv"))  # no stop rule
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--field", "disk", "--p", "0.2", "--target-n", "4",
                    "--mesh-out", str(tmp_path / "m.txt"),
                    "--trace-out", str(tmp_path / "t.csv"))
        assert exc.value.code == 2


class TestConverge:
    def test_rows_and_summary(self, tmp_path, capsys):
        csv = tmp_path / "conv.csv"
        code = run_cli("converge", "--field", "aniso-2",
                       "--checkpoints", "64,256", "--csv-out", str(csv))
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "n,error,product,target,ratio"
        assert len(lines) == 3
        summary = capsys.readouterr().out
        ratio = float(summary.split("final_ratio=")[1])
        assert ratio > 0

    def test_determinism(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            csv = tmp_path / f"{sub}.csv"
            run_cli("converge", "--field", "disk", "--checkpoints", "32,64",
                    "--csv-out", str(csv))
            outs.append(csv.read_bytes())
        assert outs[0] == outs[1]


class TestSigmaStudy:
    def test_rows(self, tmp_path, capsys):
        csv = tmp_path / "sigma.csv"
        code = run_cli("sigma-study", "--field", "disk", "--levels", "3",
                       "--csv-out", str(csv))
        assert code == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 5  # header + levels 0..3
        assert "final_fraction_above=" in capsys.readouterr().out

    def test_non_quadratic_rejected(self, tmp_path, capsys):
        # a field with no form and one whose form is indefinite: one usage error
        for label in ("expbump", "mixed-saddle"):
            code = run_cli("sigma-study", "--field", label, "--levels", "1",
                           "--csv-out", str(tmp_path / "s.csv"))
            assert code == 2
            err = capsys.readouterr().err
            assert "quadratic" in err and "a positive-definite form is needed" in err
            assert not (tmp_path / "s.csv").exists()

    def test_levels_over_node_cap_exit_3_before_refining(self, tmp_path, capsys,
                                                         monkeypatch):
        calls = []
        real = RefinementForest.bisect_node
        monkeypatch.setattr(RefinementForest, "bisect_node",
                            lambda *args: calls.append(args) or real(*args))
        csv = tmp_path / "s.csv"
        code = run_cli("sigma-study", "--field", "aniso-10", "--levels", "40",
                       "--csv-out", str(csv))
        assert code == 3
        err = capsys.readouterr().err
        assert "exceeds the node cap" in err
        assert "40 levels (120 bisection sweeps)" in err
        assert not csv.exists()
        assert calls == []

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exit_1(self, tmp_path, capsys, threshold):
        csv = tmp_path / "s.csv"
        code = run_cli("sigma-study", "--field", "aniso-10", "--levels", "1",
                       f"--threshold={threshold}", "--csv-out", str(csv))
        assert code == 1
        assert "threshold must be finite" in capsys.readouterr().err
        assert not csv.exists()


@pytest.fixture()
def small_mesh(tmp_path):
    path = tmp_path / "mesh.txt"
    run_cli("run", "--field", "disk", "--target-n", "2",
            "--mesh-out", str(path), "--trace-out", str(tmp_path / "t.csv"))
    return path


REFERENCE_CMAP = ((43, 131, 186), (255, 255, 191), (215, 25, 28))


def reference_color(t):
    t = min(max(t, 0.0), 1.0)
    if t <= 0.5:
        lo, hi, s = REFERENCE_CMAP[0], REFERENCE_CMAP[1], 2.0 * t
    else:
        lo, hi, s = REFERENCE_CMAP[1], REFERENCE_CMAP[2], 2.0 * t - 1.0
    rgb = [round(a + (b - a) * s) for a, b in zip(lo, hi)]
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def reference_mesh_to_svg(forest, values=None, legend=None):
    """The SVG writer as one formatted coordinate pair and one color per polygon."""
    verts = forest.leaf_vertex_array()
    vmin = verts.reshape(-1, 2).min(axis=0)
    vmax = verts.reshape(-1, 2).max(axis=0)
    span = float(max(vmax[0] - vmin[0], vmax[1] - vmin[1], 1e-300))
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
    if values is not None:
        values = np.asarray(values, dtype=float)
        lo, hi = float(values.min()), float(values.max())
        spread = hi - lo
        norm = (values - lo) / spread if spread > 0 else np.full(len(values), 0.5)
    for i in range(len(verts)):
        pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in xy[i])
        fill = reference_color(float(norm[i])) if values is not None else "none"
        lines.append(f'<polygon points="{pts}" fill="{fill}" '
                     f'stroke="#000000" stroke-width="0.5"/>')
    if values is not None:
        for k in range(64):
            lines.append(f'<rect x="{200 + 9.375 * k:.3f}" y="1020" '
                         f'width="9.375" height="30" fill="{reference_color(k / 63)}"/>')
        label = legend or "value"
        lines.append(f'<text x="195" y="1044" font-size="20" '
                     f'text-anchor="end">{lo:.6g}</text>')
        lines.append(f'<text x="805" y="1044" font-size="20">{hi:.6g}</text>')
        lines.append(f'<text x="500" y="1072" font-size="20" '
                     f'text-anchor="middle">{label}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


class TestSvgWriter:
    @pytest.fixture(scope="class")
    def forest(self):
        return greedy_run(get_field("expbump"), GreedyConfig(
            stop=StopRule("target-count", 300), initial="unit-square"))[0]

    @pytest.mark.parametrize("case", ["none", "spread", "constant"])
    def test_matches_per_polygon_reference(self, forest, case):
        rng = np.random.default_rng(5)
        # values hit the color map's ends and its midpoint exactly
        values = {"none": None,
                  "spread": np.concatenate([[0.0, 0.5, 1.0, -2.5],
                                            rng.normal(size=forest.n_leaves - 4)]),
                  "constant": np.full(forest.n_leaves, 0.25)}[case]
        assert mesh_to_svg(forest, values, "v") == \
            reference_mesh_to_svg(forest, values, "v")

    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
    def test_infinite_value_raises_like_reference(self, forest):
        # an infinite maximum gives the infinite value a NaN position on the map
        values = np.r_[np.inf, np.zeros(forest.n_leaves - 1)]
        for writer in (mesh_to_svg, reference_mesh_to_svg):
            with pytest.raises(ValueError):
                writer(forest, values)

    def test_color_map_matches_reference(self):
        t = np.concatenate([np.linspace(-0.5, 1.5, 4001), [0.25, 0.5, 0.75, -0.0]])
        assert cli._color(t) == [reference_color(x) for x in t.tolist()]


class TestRender:
    def test_polygon_count(self, small_mesh, tmp_path):
        svg = tmp_path / "mesh.svg"
        code = run_cli("render", str(small_mesh), "--svg-out", str(svg))
        assert code == 0
        text = svg.read_text()
        assert text.count("<polygon") == 2
        assert "</svg>" in text and 'fill="none"' in text

    def test_sigma_coloring_with_form(self, small_mesh, tmp_path):
        svg = tmp_path / "mesh.svg"
        code = run_cli("render", str(small_mesh), "--svg-out", str(svg),
                       "--color-by", "sigma", "--form", "1,0,4")
        assert code == 0
        text = svg.read_text()
        assert "sigma_q" in text  # legend label
        assert text.count("<rect") >= 32  # color bar swatches

    def test_sigma_coloring_from_quadratic_field(self, small_mesh, tmp_path):
        code = run_cli("render", str(small_mesh), "--svg-out",
                       str(tmp_path / "m.svg"), "--color-by", "sigma",
                       "--field", "aniso-2")
        assert code == 0

    def test_error_coloring(self, small_mesh, tmp_path):
        svg = tmp_path / "mesh.svg"
        code = run_cli("render", str(small_mesh), "--svg-out", str(svg),
                       "--color-by", "error", "--field", "disk", "--p", "2")
        assert code == 0
        assert "local L2 error" in svg.read_text()

    @pytest.mark.parametrize("p", ["2", "inf"])
    @pytest.mark.parametrize("op", ["interpolation", "l2-projection"])
    def test_error_values_equal_local_error(self, tmp_path, monkeypatch, p, op):
        mesh = tmp_path / "mesh.txt"
        run_cli("run", "--field", "expbump", "--target-n", "100",
                "--mesh-out", str(mesh), "--trace-out", str(tmp_path / "t.csv"))
        seen = []
        real = cli.mesh_to_svg
        monkeypatch.setattr(cli, "mesh_to_svg",
                            lambda forest, values, legend: seen.append(values)
                            or real(forest, values, legend))
        code = run_cli("render", str(mesh), "--svg-out", str(tmp_path / "m.svg"),
                       "--color-by", "error", "--field", "expbump", "--p", p,
                       "--operator", op)
        assert code == 0
        f = get_field("expbump")
        want = [local_error(t, f, float(p), op)
                for t in map(Triangle, load_mesh(mesh).leaf_vertex_array())]
        assert np.array_equal(seen[0], want)

    def test_error_coloring_non_finite_field_exit_1(self, small_mesh, tmp_path,
                                                   capsys, monkeypatch):
        monkeypatch.setattr(cli, "get_field", lambda label: ScalarField(
            label, lambda x, y: np.where(x > 0.5, np.nan, x)))
        code = run_cli("render", str(small_mesh), "--svg-out", str(tmp_path / "m.svg"),
                       "--color-by", "error", "--field", "nan-right")
        assert code == 1
        assert "field 'nan-right' is not finite" in capsys.readouterr().err

    def test_indefinite_form_clean_error(self, small_mesh, tmp_path, capsys):
        code = run_cli("render", str(small_mesh), "--svg-out",
                       str(tmp_path / "m.svg"), "--color-by", "sigma",
                       "--form", "1,0,-1")
        assert code == 2
        assert "positive-definite" in capsys.readouterr().err

    def test_missing_form_usage_error(self, small_mesh, tmp_path, capsys):
        code = run_cli("render", str(small_mesh), "--svg-out",
                       str(tmp_path / "m.svg"), "--color-by", "sigma")
        assert code == 2
        assert "needs --form" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--color-by", "sigma"], "sigma coloring needs --form"),
        (["--color-by", "error"], "error coloring needs --field"),
        (["--color-by", "sigma", "--form", "1,0,-1"], "a positive-definite form is needed"),
        (["--color-by", "sigma", "--field", "mixed-saddle"],
         "a positive-definite form is needed")],
        ids=["sigma-sigma coloring needs --form", "error-error coloring needs --field",
             "indefinite-form", "indefinite-field"])
    def test_usage_error_before_reading_the_mesh(self, tmp_path, capsys, flags, message):
        code = run_cli("render", str(tmp_path / "missing.txt"), "--svg-out",
                       str(tmp_path / "m.svg"), *flags)
        assert code == 2
        assert message in capsys.readouterr().err

    def test_malformed_mesh_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("aniso-mesh v1\nv 0 zero\n")
        code = run_cli("render", str(bad), "--svg-out", str(tmp_path / "m.svg"))
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_non_ascii_byte_reports_line(self, small_mesh, tmp_path, capsys):
        lines = small_mesh.read_bytes().split(b"\n")
        v, x, y = lines[2].split()
        lines[2] = b" ".join([v, x + b"\xe9", y])  # one byte of Latin-1, on line 3
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\n".join(lines))
        code = run_cli("render", str(bad), "--svg-out", str(tmp_path / "m.svg"))
        assert code == 1
        assert "line 3: " in capsys.readouterr().err
        with pytest.raises(MeshFormatError, match="line 3: "):
            load_mesh(bad)

    def test_svg_determinism(self, small_mesh, tmp_path):
        outs = []
        for sub in ("a", "b"):
            svg = tmp_path / f"{sub}.svg"
            run_cli("render", str(small_mesh), "--svg-out", str(svg),
                    "--color-by", "sigma", "--form", "2,0,1")
            outs.append(svg.read_bytes())
        assert outs[0] == outs[1]


def test_mesh_to_svg_direct():
    forest, _ = greedy_run(get_field("disk"),
                           GreedyConfig(stop=StopRule("target-count", 4)))
    plain = mesh_to_svg(forest)
    assert plain.count("<polygon") == 4
    colored = mesh_to_svg(forest, values=[1.0, 2.0, 3.0, 4.0], legend="demo")
    assert ">demo</text>" in colored
    with pytest.raises(ValueError):
        mesh_to_svg(forest, values=[1.0])


@pytest.mark.parametrize("command, out", [
    (["run", "--field", "disk", "--target-n", "64", "--mesh-out", "{ok}"], "--trace-out"),
    (["run", "--field", "disk", "--target-n", "64", "--trace-out", "{ok}"], "--mesh-out"),
    (["converge", "--field", "disk"], "--csv-out"),
    (["sigma-study", "--field", "disk"], "--csv-out"),
    (["render", "{ok}"], "--svg-out"),
], ids=["trace-out", "mesh-out", "converge", "sigma-study", "render"])
def test_output_in_missing_directory_fails_first(tmp_path, capsys, monkeypatch, command, out):
    def ran(*args, **kwargs):
        raise AssertionError("the command ran before its output path was checked")

    for owner, name in [(cli.engine, "greedy_run"), (cli.engine, "load_mesh"),
                        (cli.analysis, "convergence_study"), (cli.analysis, "sigma_study")]:
        monkeypatch.setattr(owner, name, ran)
    missing = str(tmp_path / "missing" / "out.txt")
    args = [a.replace("{ok}", str(tmp_path / "ok.txt")) for a in command]
    assert run_cli(*args, out, missing) == 1
    assert f"cannot write {missing!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point(tmp_path):
    # the child process imports the package the tests import
    src = os.path.dirname(os.path.dirname(anisomesh.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "anisomesh", "run", "--field", "disk",
         "--target-n", "4", "--mesh-out", str(tmp_path / "m.txt"),
         "--trace-out", str(tmp_path / "t.csv")],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "N=4" in result.stdout
