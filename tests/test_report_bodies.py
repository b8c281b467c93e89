"""Report bodies against copies committed under ``tests/report_bodies``.

Keys, strings, integers and booleans must match exactly, and floats to
``1e-12 * max(1, |committed|)``, so that another platform's last-digit BLAS
differences pass and anything larger fails.  The ``#`` header line (it
carries a timestamp) and ``arguments.file`` (a temporary path) are dropped
first.

After a change that is meant to move report digits, rewrite the copies with
``PYTHONPATH=src python tests/test_report_bodies.py`` and review the diff.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from nullcartan.cli import main

BODIES = Path(__file__).with_name("report_bodies")

# the n = 6 recipe with k3 = 1/(1+t), so (1/k3)' = 1 and it has an evolute
RECIPE6 = {"dimension": 6, "parameter": "t",
           "curvatures": ["0.15", "-0.05", "1/(1 + t)"],
           "interval": [-0.6, 1.1], "step": 0.001}

# report name -> (input, argv after the input file)
RUNS = {
    "quintic_classify": ("quintic", ["classify", "--grid", "9"]),
    "quintic_frame": ("quintic", ["frame", "--grid", "7"]),
    "quintic_bertrand": ("quintic", ["bertrand", "--grid", "7"]),
    "quintic_reparam": ("quintic", ["reparam", "--grid", "9"]),
    "recipe6_classify": ("recipe6", ["classify", "--grid", "9"]),
    "recipe6_frame": ("recipe6", ["frame", "--grid", "7"]),
    "recipe6_sphere": ("recipe6", ["sphere", "--grid", "7"]),
    "recipe6_reparam": ("recipe6", ["reparam", "--grid", "9"]),
    "recipe6_evolute_roundtrip": ("recipe6", ["evolute", "--grid", "7", "--roundtrip"]),
    "recipe6_synthesize": ("recipe6", ["synthesize", "--grid", "5"]),
}


def _write_input(name, directory):
    path = Path(directory) / f"{name}.json"
    if name == "quintic":
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["fixture", "--output", str(path)]) == 0
    else:
        path.write_text(json.dumps(RECIPE6))
    return str(path)


def report(name, directory):
    """Exit code, body (header and ``arguments.file`` dropped) and stderr."""
    source, argv = RUNS[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], _write_input(source, directory), *argv[1:]])
    text = "\n".join(l for l in out.getvalue().splitlines() if not l.startswith("#"))
    body = json.loads(text) if text else None
    if body is not None:
        del body["arguments"]["file"]
    return {"exit": code, "body": body, "stderr": err.getvalue()}


def assert_matches(got, want, path="report"):
    numbers = (int, float)
    if (isinstance(got, numbers) and isinstance(want, numbers)
            and not isinstance(got, bool) and not isinstance(want, bool)
            and (isinstance(got, float) or isinstance(want, float))):
        # "%.17g" prints 1.0 as 1, so a float report field may read back as int
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.mark.parametrize("name", RUNS)
def test_report_body_matches_the_committed_copy(name, tmp_path):
    want = json.loads((BODIES / f"{name}.json").read_text())
    assert_matches(report(name, tmp_path), want)


def test_the_comparison_forgives_roundoff_only():
    want = {"k": [1.0, 2, "x", True], "r": 0.5}
    assert_matches({"k": [1.0 + 4e-16, 2, "x", True], "r": 0.5 + 1e-17}, want)
    for got in ({"k": [1.0 + 1e-11, 2, "x", True], "r": 0.5},
                {"k": [1.0, 3, "x", True], "r": 0.5},
                {"k": [1.0, 2, "y", True], "r": 0.5},
                {"k": [1.0, 2, "x", 1], "r": 0.5},
                {"r": 0.5, "k": [1.0, 2, "x", True]}):
        with pytest.raises(AssertionError):
            assert_matches(got, want)


if __name__ == "__main__":
    BODIES.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        for name in RUNS:
            result = report(name, directory)
            (BODIES / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n")
            print(name, "exit", result["exit"], file=sys.stderr)
