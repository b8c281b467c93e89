"""CLI surface tests: file handling, exit codes, formats, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nullcartan.cli import main

from conftest import golden_mate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def source_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for
    a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def body_of(out):
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    return json.loads("\n".join(lines))


@pytest.fixture()
def quintic_file(tmp_path, capsys):
    path = tmp_path / "quintic.json"
    code = main(["fixture", "--output", str(path)])
    assert code == 0
    capsys.readouterr()
    return str(path)


@pytest.fixture()
def profile6_file(tmp_path):
    path = tmp_path / "profile6.json"
    path.write_text(json.dumps({
        "dimension": 6, "parameter": "t",
        "curvatures": ["0.2", "-0.1", "1 + t"],
        "interval": [0.0, 1.0], "step": 0.001}))
    return str(path)


# ---------------------------------------------------------------------------

def test_classify_fixture(quintic_file, capsys):
    code, out, _ = run(capsys, "classify", quintic_file)
    assert code == 0
    body = body_of(out)
    assert body["verdicts"]["family"] is True
    assert body["summary"]["nullity_sequence"] == [0, 1, 2, 2, 1, 0]
    assert body["summary"]["degeneration_degree"] == 2


def test_classify_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimension": 5, "parameter": "s",
                               "components": ["s", "s^2", "s^3"],
                               "domain": [0, 1]}))
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2
    diag = json.loads(err.splitlines()[-1])
    assert diag["category"] == "input"


@pytest.mark.parametrize("patch", [
    {"dimension": "five"},
    {"domain": [0, "x"]},
    {"domain": [0]},
])
def test_malformed_fields_exit_2_with_diagnostic(tmp_path, capsys, patch):
    spec = {"dimension": 5, "parameter": "s",
            "components": ["s", "s", "s", "s", "s"], "domain": [0, 1]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec | patch))
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2
    diag = json.loads(err.splitlines()[-1])
    assert diag["category"] == "input"
    assert diag["error"] == "InputError"


@pytest.mark.parametrize("command, content", [
    ("classify", None),
    ("classify", b"\xff\xfe{}"),
    ("classify", b'{"dimension": 5,'),
    ("classify", b"[1, 2]"),
    ("classify", json.dumps({"dimension": 5, "parameter": "s", "domain": [0, 1]}).encode()),
    ("synthesize", json.dumps({"dimension": 6, "interval": [0, 1]}).encode()),
], ids=["missing file", "not utf-8", "invalid json", "top-level array",
        "no components", "profile without curvatures"])
def test_malformed_files_exit_2_naming_the_file(tmp_path, capsys, command, content):
    path = tmp_path / "spec.json"
    if content is not None:
        path.write_bytes(content)
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["category"] == "input"
    assert diag["error"] == "InputError"
    assert str(path) in diag["message"]


@pytest.mark.parametrize("command", ["classify", "frame", "bertrand", "reparam"])
def test_a_huge_or_non_finite_domain_ends_in_a_diagnostic(quintic_file, tmp_path, capsys,
                                                          command):
    spec = json.loads(Path(quintic_file).read_text())
    f = tmp_path / "domain.json"
    # [0, 1e62] overflows the fold's Taylor-shift table, so the program runs
    # on the grid; far out, the norm of alpha' overflows, a numerical
    # failure.  A fresh interpreter shows that no numpy warning reaches
    # stderr ahead of the one diagnostic line
    f.write_text(json.dumps(spec | {"domain": [0, 1e62]}))
    done = subprocess.run([sys.executable, "-m", "nullcartan.cli", command, str(f)],
                          env=source_env(), capture_output=True, text=True)
    assert done.returncode == 4
    [line] = done.stderr.splitlines()
    diag = json.loads(line)
    assert diag["category"] == "numerical"
    assert diag["error"] == "DegenerateBasisError"
    assert diag["message"].startswith("|alpha^(1)| overflows at t=")
    # [0, inf] is refused when the curve is built
    f.write_text(json.dumps(spec | {"domain": [0, float("inf")]}))
    code, _, err = run(capsys, command, str(f))
    assert code == 2
    diag = json.loads(err.splitlines()[-1])
    assert diag["category"] == "input"
    assert "domain must be a finite interval" in diag["message"]


@pytest.mark.parametrize("patch", [
    {"dimension": 5.9},
    {"dimension": True},
    {"grid_density": 7.5},
    {"grid_density": True},
    {"domain": [False, True]},
    {"curvatures": ["0", "0"], "interval": [0, 1], "step": True},
    {"curvatures": ["0", "0"], "interval": [0, True]},
], ids=["dimension 5.9", "dimension true", "grid_density 7.5", "grid_density true",
        "domain false true", "step true", "interval true"])
def test_non_integral_integer_fields_exit_2(tmp_path, capsys, patch):
    # integer fields are not truncated: 5.9 is not read as 5, nor true as 1;
    # number fields do not read true and false as 1.0 and 0.0 either
    spec = {"dimension": 5, "parameter": "s",
            "components": ["s", "s", "s", "s", "s"], "domain": [0, 1]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec | patch))
    code, out, err = run(capsys, "classify", str(bad))
    assert code == 2
    assert out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["category"] == "input"
    assert diag["error"] == "InputError"


def test_integral_floats_are_integers(quintic_file, capsys, tmp_path):
    spec = json.loads("\n".join(l for l in Path(quintic_file).read_text().splitlines()
                                if not l.startswith("#")))
    f = tmp_path / "floats.json"
    f.write_text(json.dumps(spec | {"dimension": 5.0, "grid_density": 9.0}))
    code, out, _ = run(capsys, "classify", str(f))
    assert code == 0
    assert len(body_of(out)["summary"]["grid"]) == 9


@pytest.mark.parametrize("command", ["synthesize", "classify", "frame", "sphere"])
def test_recipe_parameter_defaults_to_t_in_every_command(tmp_path, capsys, command):
    # a recipe without a parameter field reads its curvatures in t, whether
    # it is synthesized or loaded as a curve
    f = tmp_path / "recipe.json"
    f.write_text(json.dumps({"dimension": 6, "curvatures": ["0.2", "-0.1", "1 + t"],
                             "interval": [0, 1], "step": 0.01}))
    code, out, err = run(capsys, command, str(f), "--grid", "9")
    assert code == 0, err
    assert body_of(out)


def test_zero_grid_exits_2(quintic_file, capsys):
    code, out, err = run(capsys, "classify", quintic_file, "--grid", "0")
    assert code == 2
    assert out == ""
    assert json.loads(err.splitlines()[-1])["category"] == "input"


HUGE_GRID = "200000000"


def _refused_grid(err):
    diag = json.loads(err.splitlines()[-1])
    assert diag["category"] == "input"
    assert "limit" in diag["message"]
    return diag["message"]


@pytest.mark.parametrize("command", ["classify", "frame", "bertrand", "sphere",
                                     "evolute", "involute", "reparam", "synthesize"])
def test_huge_grid_is_refused_before_allocation(quintic_file, profile6_file, capsys,
                                                command):
    # 2e8 points would need gigabytes of frame jets; the refusal allocates none
    argv = [command, quintic_file, "--grid", HUGE_GRID]
    if command in ("sphere", "evolute", "synthesize"):
        argv[1] = profile6_file
    if command == "involute":
        argv += ["--t0", "0.5"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    message = _refused_grid(err)
    assert HUGE_GRID in message


def test_huge_grid_density_in_the_file_is_refused(tmp_path, capsys):
    from nullcartan.bundled import NULL_QUINTIC
    f = tmp_path / "dense.json"
    f.write_text(json.dumps(dict(NULL_QUINTIC, grid_density=10**12)))
    code, out, err = run(capsys, "classify", str(f))
    assert code == 2
    assert str(10**12) in _refused_grid(err)


def test_grid_bound_boundary(quintic_file, capsys, monkeypatch):
    # n = 5: a point of frame jets is n^2 (n + 3) = 200 floats
    import nullcartan.cli as cli
    monkeypatch.setattr(cli, "MAX_TABLE_FLOATS", 9 * 200)
    code, _, err = run(capsys, "classify", quintic_file, "--grid", "9")
    assert code == 0, err
    code, _, err = run(capsys, "classify", quintic_file, "--grid", "10")
    assert code == 2
    assert "2000 floats" in _refused_grid(err)


def test_classify_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimension": 5, "parameter": "s",
                               "components": ["s", "s", "s**3", "s", "s"],
                               "domain": [0, 1]}))
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2


def test_classify_family_violation_exit_code(tmp_path, capsys):
    f = tmp_path / "poly.json"
    f.write_text(json.dumps({"dimension": 5, "parameter": "s",
                             "components": ["sin(s)", "cos(s)", "s", "s^2/2",
                                            "s^3/6"],
                             "domain": [0, 1]}))
    # classify reports family false with exit 0 (a verdict was computed)
    code, out, _ = run(capsys, "classify", str(f))
    assert code == 0
    assert body_of(out)["verdicts"]["family"] is False


def test_frame_row_count_matches_samples(quintic_file, capsys):
    code, out, _ = run(capsys, "frame", quintic_file, "--grid", "9")
    assert code == 0
    body = body_of(out)
    assert len(body["table"]["rows"]) == 9
    assert body["summary"]["max_frenet_residual"] <= 1e-2  # coarse stencil grid
    k_cols = [c for c in body["table"]["columns"] if c.startswith("k")]
    assert k_cols == ["k1", "k2"]


def test_frame_report_names_the_gates_it_applies(quintic_file, capsys):
    from nullcartan.frame import CURVATURE_FLOOR, NULL_CHAIN_GATE, PSEUDO_ARC_GATE

    code, out, _ = run(capsys, "frame", quintic_file, "--grid", "9")
    assert code == 0
    body = body_of(out)
    assert body["tolerances"] == {"null_chain_gate": NULL_CHAIN_GATE,
                                  "pseudo_arc_gate": PSEUDO_ARC_GATE,
                                  "curvature_floor": CURVATURE_FLOOR}
    assert "tol" not in body["arguments"]
    # the frame gates are fixed, so there is no option to set them
    with pytest.raises(SystemExit) as exc:
        main(["frame", quintic_file, "--tol", "1e-3"])
    assert exc.value.code == 2


def test_frame_extracts_frames_once(quintic_file, capsys, monkeypatch):
    # the residual report reuses the frames and points of the table
    import nullcartan.frame as frame

    calls = []
    original = frame.frame_grid

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(frame, "frame_grid", counted)
    code, out, _ = run(capsys, "frame", quintic_file)
    assert code == 0
    assert "frenet_residuals" in body_of(out)["summary"]
    assert len(calls) == 1


def test_bertrand_fixture(quintic_file, capsys):
    code, out, _ = run(capsys, "bertrand", quintic_file, "--mu", "1")
    assert code == 0
    body = body_of(out)
    assert body["verdicts"]["bertrand"] is True
    assert body["summary"]["alignment_defect"] <= 1e-9
    cols = body["table"]["columns"]
    for row in body["table"]["rows"]:
        s = row[cols.index("s")]
        assert row[cols.index("sbar")] == pytest.approx(s)
        got = np.array(row[2:])
        assert np.max(np.abs(got - golden_mate(s, 1.0))) <= 1e-9


def test_bertrand_negative_verdict_exits_zero(tmp_path, capsys, monkeypatch):
    from nullcartan import constructions

    framed = []
    frames = constructions._bertrand_frames
    monkeypatch.setattr(constructions, "_bertrand_frames",
                        lambda *a: framed.append(a) or frames(*a))
    f = tmp_path / "bent.json"
    f.write_text(json.dumps({
        "dimension": 5, "parameter": "t", "curvatures": ["0.3", "0"],
        "interval": [0.0, 1.0], "step": 0.001}))
    code, out, _ = run(capsys, "bertrand", str(f), "--mu", "1")
    assert code == 0
    body = body_of(out)
    assert body["verdicts"]["bertrand"] is False
    assert body["summary"]["max_k1"] == pytest.approx(0.3, abs=1e-6)
    # the verdict comes from the one framing bertrand_mate already did
    assert len(framed) == 1


def test_sphere_on_synthesized_recipe(tmp_path, capsys):
    f = tmp_path / "sphere.json"
    f.write_text(json.dumps({
        "dimension": 6, "parameter": "t", "curvatures": ["0.1", "0.05", "0.5"],
        "interval": [0.0, 1.0], "step": 0.001}))
    code, out, _ = run(capsys, "sphere", str(f))
    assert code == 0
    body = body_of(out)
    assert body["verdicts"]["is_spherical"] is True
    assert body["summary"]["radius"] == pytest.approx(2.0, rel=1e-6)


def test_sphere_on_one_point_is_an_input_error(profile6_file, capsys):
    # k3 = 1 + t: one point would read as a sphere, with every spread 0
    code, out, err = run(capsys, "sphere", profile6_file, "--grid", "1")
    assert code == 2 and out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["category"] == "input"
    assert "at least two distinct parameters" in diag["message"]


def test_sphere_dimension_hypothesis_exit_code(quintic_file, capsys):
    code, _, err = run(capsys, "sphere", quintic_file)
    assert code == 3
    assert json.loads(err.splitlines()[-1])["category"] == "hypothesis"


def test_bertrand_dimension_hypothesis_exit_code(profile6_file, tmp_path, capsys):
    # cmd_bertrand reports a curved mate as a verdict, and re-raises every
    # other hypothesis failure, here the dimension gate, as exit 3
    synth6 = tmp_path / "synth6.json"
    assert main(["synthesize", profile6_file, "--output", str(synth6)]) == 0
    code, out, err = run(capsys, "bertrand", str(synth6))
    assert code == 3
    assert out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["category"] == "hypothesis"
    assert "dimension 5" in diag["message"]


def test_evolute_dimension_hypothesis_exit_code(quintic_file, capsys):
    code, _, err = run(capsys, "evolute", quintic_file)
    assert code == 3
    diagnostic = json.loads(err.splitlines()[-1])
    assert diagnostic["category"] == "hypothesis"
    assert "dimension 6" in diagnostic["message"]


def test_numerical_failure_exit_code(tmp_path, capsys):
    f = tmp_path / "degenerate.json"
    f.write_text(json.dumps({
        "dimension": 6, "parameter": "t", "curvatures": ["0.1", "0", "t - 0.5"],
        "interval": [0.0, 1.0], "step": 0.001}))
    code, _, err = run(capsys, "frame", str(f), "--grid", "9")
    assert code == 4
    assert json.loads(err.splitlines()[-1])["category"] == "numerical"


def test_overflowing_synthesis_exit_code(tmp_path, capsys):
    # left to run over all of [0, 100] the frame overflows to a NaN Gram
    # defect; the gate must stop the run with a numerical error instead
    f = tmp_path / "overflow.json"
    f.write_text(json.dumps({
        "dimension": 6, "curvatures": ["1", "2", "200"],
        "interval": [0, 100], "step": 0.5}))
    code, _, err = run(capsys, "synthesize", str(f))
    assert code == 4
    diag = json.loads(err.splitlines()[-1])
    assert diag["category"] == "numerical"
    assert diag["error"] == "StepSizeError"


@pytest.mark.parametrize("command", ["classify", "frame"])
def test_evaluation_error_names_the_subexpression_once(tmp_path, capsys, command):
    f = tmp_path / "log.json"
    f.write_text(json.dumps({
        "dimension": 5, "parameter": "s",
        "components": ["s", "s^2", "log(s - 0.2)", "s^4", "s^5"],
        "domain": [0, 1]}))
    code, _, err = run(capsys, command, str(f))
    assert code == 4
    diag = json.loads(err.splitlines()[-1])
    assert diag["error"] == "ExprEvaluationError"
    assert diag["message"].startswith("component 2: ")
    assert diag["message"].count("log((s - 0.2))") == 1


@pytest.mark.parametrize("command", ["classify", "frame", "bertrand", "reparam"])
def test_non_finite_component_exits_4(quintic_file, tmp_path, capsys, command):
    # the constant folds to inf - inf = NaN, so the component is NaN everywhere
    spec = json.loads(Path(quintic_file).read_text())
    spec["components"][2] += " + s*(exp(700)*exp(700) - exp(700)*exp(700))"
    f = tmp_path / "nan.json"
    f.write_text(json.dumps(spec))
    code, out, err = run(capsys, command, str(f))
    assert code == 4
    assert out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["category"] == "numerical"
    assert diag["error"] == "ExprEvaluationError"
    assert diag["message"].startswith("component 2: non-finite jet at s=")


def test_evolute_roundtrip_command(tmp_path, capsys):
    f = tmp_path / "ev.json"
    f.write_text(json.dumps({
        "dimension": 6, "parameter": "t",
        "curvatures": ["0.15", "-0.05", "1/(1 + t)"],
        "interval": [-0.6, 1.1], "step": 0.001}))
    code, out, _ = run(capsys, "evolute", str(f), "--grid", "11", "--roundtrip")
    assert code == 0
    body = body_of(out)
    assert body["summary"]["speed_defect"] <= 1e-5
    assert body["summary"]["roundtrip_sup_distance"] <= 1e-5


def test_involute_circle(tmp_path, capsys):
    f = tmp_path / "circle.json"
    f.write_text(json.dumps({
        "dimension": 5, "parameter": "s",
        "components": ["0", "0", "1.5*cos(s)", "1.5*sin(s)", "0"],
        "domain": [0.0, 2.0]}))
    code, out, _ = run(capsys, "involute", str(f), "--t0", "0", "--grid", "5")
    assert code == 0
    body = body_of(out)
    cols = body["table"]["columns"]
    row = body["table"]["rows"][-1]
    t = row[cols.index("t")]
    assert row[cols.index("s")] == pytest.approx(1.5 * t, abs=1e-9)


def test_synthesize_frame_round_trip(profile6_file, tmp_path, capsys):
    out_path = tmp_path / "synth.json"
    code, _, _ = run(capsys, "synthesize", profile6_file, "--grid", "17",
                     "--output", str(out_path))
    assert code == 0
    raw = out_path.read_text()
    assert raw.splitlines()[0].startswith("#")
    spec = json.loads("\n".join(l for l in raw.splitlines()
                                if not l.startswith("#")))
    assert spec["kind"] == "synthesized"
    assert spec["max_gram_defect"] <= 1e-10
    # re-ingest: frame must reproduce the prescribed curvatures
    code, out, _ = run(capsys, "frame", str(out_path), "--grid", "9")
    assert code == 0
    body = body_of(out)
    cols = body["table"]["columns"]
    for row in body["table"]["rows"]:
        t = row[cols.index("t")]
        got = [row[cols.index("k1")], row[cols.index("k2")], row[cols.index("k3")]]
        assert np.max(np.abs(np.array(got) - [0.2, -0.1, 1 + t])) <= 1e-6


def test_input_digest_skips_the_header_lines(profile6_file, tmp_path, capsys):
    # two syntheses of one recipe differ in their timestamped headers only,
    # and the digest hashes every byte but those lines
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        assert run(capsys, "synthesize", profile6_file, "--grid", "9",
                   "--output", str(path))[0] == 0
    relabeled = tmp_path / "relabeled.json"
    relabeled.write_text("# another header\n" + paths[1].read_text().split("\n", 1)[1])
    digests = []
    for path in paths + [relabeled]:
        code, out, _ = run(capsys, "classify", str(path), "--grid", "5")
        assert code == 0
        digests.append(body_of(out)["input_digest"])
    body = "".join(l for l in paths[0].read_text().splitlines(keepends=True)
                   if not l.startswith("#"))
    assert digests == [f"sha256:{hashlib.sha256(body.encode()).hexdigest()}"] * 3


def test_report_bodies_are_deterministic(quintic_file, capsys):
    _, out1, _ = run(capsys, "classify", quintic_file)
    _, out2, _ = run(capsys, "classify", quintic_file)
    strip = lambda s: "\n".join(l for l in s.splitlines() if not l.startswith("#"))
    assert strip(out1) == strip(out2)


def test_csv_format_is_rfc4180_parseable(quintic_file, capsys):
    code, out, _ = run(capsys, "classify", quintic_file, "--format", "csv")
    assert code == 0
    table_lines = [l for l in out.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(table_lines))))
    assert rows[0] == ["i", "r_i", "q_i"]
    assert len(rows) == 7  # header + 6 sequence entries
    assert [r[1] for r in rows[1:]] == ["0", "1", "2", "2", "1", "0"]


def test_float_serialization_round_trips(quintic_file, capsys):
    _, out, _ = run(capsys, "classify", quintic_file)
    body = body_of(out)
    tol = body["tolerances"]["classification"]
    assert tol == 1e-9  # 17 significant digits survive the JSON round trip


def test_fixture_output_is_pure_json(capsys):
    code, out, _ = run(capsys, "fixture")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 5
    assert len(data["components"]) == 5


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fixture_has_no_format_option(capsys, fmt):
    # the fixture is always pure JSON, so --format is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["fixture", "--format", fmt])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diag = json.loads(captured.err)
    assert diag["category"] == "input"
    assert diag["error"] == "InputError"


# every library error class, with the exit category the README gives it and
# the arguments its constructor needs after the message
EXIT_CATEGORIES = {
    "NullCartanError": ("family", ()),
    "ClassificationError": ("family", ()),
    "FamilyError": ("family", ()),
    "InputError": ("input", ()),
    "DimensionMismatchError": ("input", ()),
    "ExprSyntaxError": ("input", (3,)),
    "HypothesisError": ("hypothesis", ()),
    "FrameDegeneracyError": ("numerical", ()),
    "StepSizeError": ("numerical", ()),
    "SingularRecursionError": ("numerical", ()),
    "ExprEvaluationError": ("numerical", ("sqrt(s)",)),
    "DegenerateBasisError": ("numerical", ()),
}
EXIT_CODES = {"input": 2, "hypothesis": 3, "family": 3, "numerical": 4}


def test_every_error_class_has_a_documented_exit_category():
    from nullcartan import errors

    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.NullCartanError)}
    assert classes == set(EXIT_CATEGORIES)


@pytest.mark.parametrize("name", EXIT_CATEGORIES)
def test_each_error_class_exits_with_its_category(name, capsys, monkeypatch):
    from nullcartan import cli, errors

    category, extra = EXIT_CATEGORIES[name]
    error = getattr(errors, name)("boom", *extra)

    def command(args):
        raise error

    monkeypatch.setattr(cli, "cmd_classify", command)
    code, out, err = run(capsys, "classify", "unread.json")
    assert code == EXIT_CODES[category]
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"category": category, "error": name, "message": str(error)}


def test_cli_defaults_are_the_library_defaults():
    import inspect

    from nullcartan import constructions, curve
    from nullcartan.cli import build_parser

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    parser = build_parser()
    assert (parser.parse_args(["bertrand", "f.json"]).tol == constructions.DEFAULT_BERTRAND_TOL
            == default(constructions.bertrand_check, "tol")
            == default(constructions.bertrand_mate, "tol") == 1e-8)
    assert (parser.parse_args(["sphere", "f.json"]).tol == constructions.DEFAULT_SPHERE_TOL
            == default(constructions.pseudo_spherical_test, "tol") == 1e-5)
    assert (default(constructions.synthesize, "defect_limit")
            == default(constructions.FrenetCurve, "defect_limit")
            == constructions.DEFAULT_DEFECT_LIMIT == 1e-4)
    assert default(curve.pseudo_arc_reparam, "grid_density") == curve.DEFAULT_TABLE_ROWS == 129
    assert constructions.DEFAULT_EVOLUTE_POINTS == 33


def test_reparam_command(quintic_file, capsys):
    code, out, _ = run(capsys, "reparam", quintic_file, "--grid", "17")
    assert code == 0
    body = body_of(out)
    assert body["summary"]["unit_speed_defect"] <= 1e-6
    rows = body["table"]["rows"]
    assert len(rows) == 17
    # the bundled curve is already pseudo-arc: sbar(t) = t
    for t, sbar in rows:
        assert sbar == pytest.approx(t, abs=1e-9)


def test_reparam_honours_the_grid_density_of_the_file(quintic_file, tmp_path, capsys):
    spec = json.loads(Path(quintic_file).read_text())
    spec["grid_density"] = 33
    f = tmp_path / "quintic33.json"
    f.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "reparam", str(f))
    assert code == 0
    assert len(body_of(out)["table"]["rows"]) == 33


@pytest.mark.parametrize("grid", ["2", "3", "4", "5", "6"])
def test_reparam_checks_the_spacing_of_small_grids(quintic_file, capsys, grid):
    code, out, _ = run(capsys, "reparam", quintic_file, "--grid", grid)
    assert code == 0
    body = body_of(out)
    assert len(body["table"]["rows"]) == int(grid)
    assert body["summary"]["unit_speed_defect"] <= 1e-12


def test_reparam_grid_of_one_sample_exits_2(quintic_file, capsys, monkeypatch):
    # one sample has no spacing to check: refused before any table is built
    import nullcartan.curve
    monkeypatch.setattr(nullcartan.curve, "CumulativeIntegral", None)
    code, out, err = run(capsys, "reparam", quintic_file, "--grid", "1")
    assert code == 2
    assert out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["category"] == "input"
    assert diag["error"] == "InputError"
    assert "need at least 2, got 1" in diag["message"]


def test_cli_import_leaves_scipy_unloaded():
    # the runtime never imports scipy, a test dependency only
    script = ("import sys, nullcartan.cli; "
              "print(sorted(m for m in sys.modules "
              "if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", script], env=source_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_oversized_synthesis_table_exits_2(tmp_path, capsys):
    f = tmp_path / "profile.json"
    f.write_text(json.dumps({
        "dimension": 6, "parameter": "t", "curvatures": ["0.15", "-0.05", "1/(1 + t)"],
        "interval": [-0.6, 1.1], "step": 0.001}))
    code, out, err = run(capsys, "synthesize", str(f), "--step", "1e-15")
    assert code == 2
    assert out == ""
    diag = json.loads(err.splitlines()[-1])
    assert diag["error"] == "InputError"
    assert "1700000000000001 nodes" in diag["message"]


def test_traced_benchmark_hooks_resolve():
    # a traced benchmark run wraps names it finds in the library's class
    # bodies (and reads two method caches); installing its collector must
    # find every one of them
    bench = Path(__file__).resolve().parents[1] / "bench"
    script = ("import sys, nullcartan, nullcartan.cli; "
              f"sys.path.insert(0, {str(bench)!r}); "
              "from spans import Tracer; "
              "tracer = Tracer(); tracer.install(); tracer.end_op()")
    done = subprocess.run([sys.executable, "-c", script], env=source_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_spline_paths_run_without_scipy(quintic_file, tmp_path):
    # scipy is a test dependency only: reparam and its unit-speed check run
    # with scipy unimportable
    report = tmp_path / "reparam.json"
    script = f"""
import sys
sys.modules["scipy"] = None
from nullcartan.cli import main

assert main(["reparam", {quintic_file!r}, "--output", {str(report)!r}]) == 0
"""
    done = subprocess.run([sys.executable, "-c", script], env=source_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert body_of(report.read_text())["summary"]["unit_speed_defect"] <= 1e-12


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tolerance_must_be_positive_and_finite(quintic_file, capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["classify", quintic_file, f"--tol={tol}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diag = json.loads(captured.err.splitlines()[-1])
    assert diag["category"] == "input"
    assert "--tol" in diag["message"]


@pytest.mark.parametrize("argv", [
    ["bertrand", "QUINTIC", "--mu", "nan"],
    ["bertrand", "QUINTIC", "--mu=-inf"],
    ["involute", "CIRCLE", "--t0", "0", "--s0", "nan"],
    ["involute", "CIRCLE", "--t0", "0", "--s0", "inf"],
    ["involute", "CIRCLE", "--t0", "nan"],
], ids=["mu nan", "mu -inf", "s0 nan", "s0 inf", "t0 nan"])
def test_non_finite_option_values_exit_2(quintic_file, tmp_path, capsys, argv):
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps({
        "dimension": 5, "parameter": "s",
        "components": ["0", "0", "1.5*cos(s)", "1.5*sin(s)", "0"],
        "domain": [0.0, 2.0]}))
    files = {"QUINTIC": quintic_file, "CIRCLE": str(circle)}
    with pytest.raises(SystemExit) as exc:
        main([files.get(a, a) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diag = json.loads(captured.err.splitlines()[-1])
    assert diag["category"] == "input"
    assert "must be a finite number" in diag["message"]


@pytest.mark.parametrize("command", ["evolute", "involute", "synthesize"])
def test_commands_without_a_tolerance_refuse_tol(profile6_file, tmp_path, capsys,
                                                 command):
    argv = [command, profile6_file, "--grid", "5"]
    if command == "involute":
        circle = tmp_path / "circle.json"
        circle.write_text(json.dumps({
            "dimension": 5, "parameter": "s",
            "components": ["0", "0", "1.5*cos(s)", "1.5*sin(s)", "0"],
            "domain": [0.0, 2.0]}))
        argv = [command, str(circle), "--grid", "5", "--t0", "0.5"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "tol" not in body_of(out)["arguments"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1e-3"])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["category"] == "input"


def test_disagreeing_points_name_both_sequences(tmp_path, capsys):
    # the nullity sequences agree between the two points; the index ones do not
    f = tmp_path / "monomials.json"
    f.write_text(json.dumps({"dimension": 5, "parameter": "s",
                             "components": ["s", "s^2", "s^3", "s^4", "s^5"],
                             "domain": [0, 1]}))
    code, _, err = run(capsys, "classify", str(f))
    assert code == 3
    message = json.loads(err.splitlines()[-1])["message"]
    assert "differ between" in message
    assert message.count("nullity (") == 2 and message.count("index (") == 2
    first, second = message.split(": ", 1)[1].split(" vs ")
    assert first != second


# ---------------------------------------------------------------------------
# Malformed inputs never end in a traceback (exit 1)

_SYMBOLIC_SPEC = {"dimension": 5, "parameter": "s",
                  "components": ["s", "s^2/2", "s^3/6", "s^4/24", "s^5/120"],
                  "domain": [0.1, 0.9]}
_PROFILE_SPEC = {"dimension": 6, "parameter": "t",
                 "curvatures": ["0.15", "-0.05", "1/(1 + t)"],
                 "interval": [-0.6, 1.1], "step": 0.01}
_FIELDS = ("dimension", "parameter", "components", "curvatures", "domain",
           "interval", "step", "grid_density", "kind")
# malformed values: wrong types and shapes, non-finite and out-of-range
# numbers, expression text.  Sizes stay small (grid_density and dimension
# at most 12, no tiny positive step), so no run allocates a huge table.
_NAN, _INF = float("nan"), float("inf")
_values = st.one_of(
    st.sampled_from([None, True, 0, -1, 3, 12, 1.5, _NAN, _INF, -_INF, "", "x",
                     "synthesized", [], [0], [1, 0], [_NAN, 1], [0, _INF],
                     [0, 1, 2], {}, {"a": 1}]),
    st.text(alphabet="st0123456789.+-*/^() ", max_size=8),
    st.lists(st.text(alphabet="st0123456789.+-*/^() ", max_size=6), max_size=7),
)
_option_values = st.sampled_from(["0", "-1", "nan", "inf", "-inf", "x", "", "1e308",
                                  "0.5", "5"])
_COMMANDS = {"classify": ["--tol"], "frame": [], "bertrand": ["--tol", "--mu"],
             "sphere": ["--tol"], "evolute": [], "involute": ["--t0", "--s0"],
             "synthesize": ["--step"], "reparam": ["--tol"]}


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_inputs_never_exit_1(spec_dir, data):
    spec = dict(data.draw(st.sampled_from([_SYMBOLIC_SPEC, _PROFILE_SPEC])))
    for field in data.draw(st.lists(st.sampled_from(_FIELDS), max_size=3, unique=True)):
        spec[field] = data.draw(_values)
    path = spec_dir / "spec.json"
    path.write_text(json.dumps(spec))
    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command, str(path), "--grid", data.draw(st.sampled_from(["-1", "0", "5", "x"]))]
    if command == "involute":
        argv += ["--t0", "0.5"]
    for option in _COMMANDS[command]:
        if data.draw(st.booleans()):
            argv += [f"{option}={data.draw(_option_values)}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, spec, code)
    if code:
        assert json.loads(err.getvalue().splitlines()[-1])["category"]


# ---------------------------------------------------------------------------
# Valid synthesis recipes end in a report or a categorized refusal

_coefficient = st.floats(-20.0, 20.0).map(lambda x: round(x, 3))
_curvature = st.one_of(
    _coefficient.map(repr),
    st.tuples(_coefficient, _coefficient).map(lambda ab: f"{ab[0]} + ({ab[1]})*t"),
    st.tuples(_coefficient, _coefficient).map(lambda ab: f"{ab[0]} + ({ab[1]})*sin(t)"))


@st.composite
def _recipes(draw):
    n = draw(st.integers(5, 8))
    a = draw(st.floats(-1.0, 1.99))
    return {"dimension": n, "parameter": "t",
            "curvatures": draw(st.lists(_curvature, min_size=n - 3, max_size=n - 3)),
            "interval": [a, draw(st.floats(a + 0.01, 2.0))],
            "step": draw(st.floats(2e-3, 5e-2))}


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(recipe=_recipes(), grid=st.integers(1, 9))
def test_synthesize_reports_or_refuses_every_valid_recipe(spec_dir, recipe, grid):
    # a valid recipe either synthesizes within the Gram gate or is refused
    # with one JSON line in its error class's category: never exit 1 or 2
    from nullcartan import errors

    path = spec_dir / "recipe.json"
    path.write_text(json.dumps(recipe))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["synthesize", str(path), "--grid", str(grid)])
    assert code in (0, 3, 4), (recipe, grid, code, err.getvalue())
    if code:
        (line,) = err.getvalue().splitlines()
        diagnostic = json.loads(line)
        assert diagnostic["category"] == getattr(errors, diagnostic["error"]).category
        assert {"hypothesis": 3, "family": 3, "numerical": 4}[diagnostic["category"]] == code
    else:
        assert not err.getvalue()
        body = body_of(out.getvalue())
        assert body["max_gram_defect"] <= 1e-4
        assert len(body["table"]["rows"]) == grid
