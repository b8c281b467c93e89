"""Report bodies against copies committed under ``tests/report_bodies``.

Keys, strings, integers and booleans must match exactly, and floats to
``1e-12 * max(1, |committed|)``, so that another platform's last-digit BLAS
differences pass and anything larger fails.  The ``#`` header line (it
carries a timestamp) and ``arguments.file`` (a temporary path) are dropped
first.

After a change that is meant to move report digits, rewrite the copies with
``PYTHONPATH=src python tests/test_report_bodies.py`` and review the diff.
"""

import argparse
import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from nullcartan.cli import main, write_report

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


def _run(name, directory, *options):
    """Exit code, stdout and stderr of a run, with ``options`` appended."""
    source, argv = RUNS[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], _write_input(source, directory), *argv[1:], *options])
    return code, out.getvalue(), err.getvalue()


def report(name, directory):
    """Exit code, body (header and ``arguments.file`` dropped) and stderr."""
    code, out, err = _run(name, directory)
    text = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    body = json.loads(text) if text else None
    if body is not None:
        del body["arguments"]["file"]
    return {"exit": code, "body": body, "stderr": err}


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


def _text(value):
    """A JSON value as a CSV report writes it: floats to 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _flattened(prefix, value):
    """``(key, text)`` pairs of a body: nested keys joined by dots, and a
    list as its items' texts joined by spaces in brackets."""
    if isinstance(value, dict):
        return [pair for key, item in value.items()
                for pair in _flattened(f"{prefix}.{key}" if prefix else key, item)]
    if isinstance(value, list):
        return [(prefix, "[" + " ".join(_text(v) for v in value) + "]")]
    return [(prefix, _text(value))]


@pytest.mark.parametrize("name", RUNS)
def test_csv_report_is_the_json_body(name, tmp_path):
    # the "#" scalar lines are the JSON body without its table, flattened,
    # and the CSV table is its table
    code, out, _ = _run(name, tmp_path)
    assert code == 0
    body = json.loads("".join(out.splitlines(keepends=True)[1:]))
    body["arguments"]["format"] = "csv"
    table = body.pop("table")
    code, out, _ = _run(name, tmp_path, "--format", "csv")
    assert code == 0
    header, *lines = out.splitlines()
    assert header.startswith(f"# nullcartan {body['command']} ")
    scalars = [line for line in lines if line.startswith("# ")]
    assert scalars == [f"# {key}: {text}" for key, text in _flattened("", body)]
    rows = list(csv.reader(io.StringIO("\n".join(lines[len(scalars):]))))
    assert rows == [table["columns"]] + [[_text(v) for v in row] for row in table["rows"]]


@pytest.mark.parametrize("name", ["quintic \u00e9.json", 'quintic "q".json'])
def test_csv_writes_a_path_as_itself(name, tmp_path):
    # not JSON-escaped: no \u00e9 for a non-ASCII letter, no \" for a quote
    path = tmp_path / "uni" / name
    path.parent.mkdir()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["fixture", "--output", str(path)]) == 0
        assert main(["classify", str(path), "--grid", "3", "--format", "csv"]) == 0
    assert f"# arguments.file: {path}" in out.getvalue().splitlines()


def test_csv_writes_list_items_and_cells_as_themselves():
    body = {"command": "x", "names": ["\u00e9", 'a"b'],
            "table": {"columns": ["name", "v"], "rows": [['\u00e9 "q"', 0.5]]}}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write_report(body, argparse.Namespace(format="csv"))
    _, _, names, *rows = out.getvalue().splitlines()
    assert names == '# names: [\u00e9 a"b]'
    assert list(csv.reader(rows)) == [["name", "v"], ['\u00e9 "q"', "0.5"]]


def test_csv_escapes_line_breaks_in_hash_lines_only():
    # a "#" line stays one line: each character str.splitlines breaks on,
    # and the backslash, is written as its escape; a table cell keeps its
    # line break inside csv quoting
    body = {"command": "x", "arguments": {"file": "a\nb\\c.json"},
            "v": ["p\rq", "r\u2028s", "t\x85"],
            "table": {"columns": ["name"], "rows": [["x\ny"]]}}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write_report(body, argparse.Namespace(format="csv"))
    _, _, file, v, table = out.getvalue().split("\n", 4)
    assert file == "# arguments.file: a\\nb\\\\c.json"
    assert v == "# v: [p\\rq r\\u2028s t\\x85]"
    assert list(csv.reader(io.StringIO(table, newline=""))) == [["name"], ["x\ny"]]


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
