"""The library's records: construction, immutability, repr, equality, hash.

Every value and report class is a :class:`~nullcartan.record.Record`.  Each
one builds by position and by keyword with its defaults, refuses attribute
assignment and deletion, prints as ``Name(field=value, ...)``, and compares
by value (with a hash over the fields) or by identity.  Records generate and
compile no code, so importing the CLI loads no ``dataclasses``.
"""

import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nullcartan import (
    BertrandMateResult,
    BertrandVerdict,
    ClassificationReport,
    Curve,
    CurvatureProfile,
    EvoluteResult,
    Frame,
    FrenetResidualReport,
    InvoluteFrameReport,
    InvoluteResult,
    Jet,
    SampledCurve,
    SequenceReport,
    SphereReport,
    SubspaceProfile,
    VecJet,
    parse,
)
from nullcartan.constructions import PairReport
from nullcartan.curve import ReparamResult
from nullcartan.expr import BinOp, Call, IntPow, Neg, Num, Param, _Series, _Token
from nullcartan.record import Record

SRC = Path(__file__).resolve().parents[1] / "src"

QUINTIC = ("(s - s^5)/(4*sqrt(15))", "(s^2 + s^4)/(4*sqrt(6))", "s^3/6",
           "(s^2 - s^4)/(4*sqrt(6))", "(s + s^5)/(4*sqrt(15))")


def placeholders(*fields):
    """One distinct hashable value per field of a record that checks none."""
    return {name: f"<{name}>" for name in fields}


# (class, fields in order with one value each, defaults, compares by value)
RECORDS = [
    (SubspaceProfile, {"rank": 3, "radical_dim": 1, "index": 1, "tolerance_used": 1e-9},
     {}, True),
    (SequenceReport, {"nullity_sequence": (0, 1, 2, 2, 1, 0),
                      "index_sequence": (0, 0, 1, 1, 2, 2), "degeneration_degree": 2},
     {}, True),
    (ClassificationReport, {"report": SequenceReport((0, 1, 0), (0, 1, 2), 1),
                            "family": True, "grid": (0.0, 0.5), "tolerance": 1e-9},
     {}, True),
    (ReparamResult, placeholders("table_t", "table_s", "sampled", "curve",
                                 "unit_speed_defect"), {}, True),
    (FrenetResidualReport, {"per_equation": {"L1": 1e-9}, "overall": 1e-9,
                            "grid": (0.0, 1.0)}, {}, True),
    (BertrandVerdict, {"verdict": True, "max_k1": 0.0, "max_k2": 1e-12,
                       "grid": (0.0, 1.0), "tolerance": 1e-8}, {}, True),
    (PairReport, placeholders("grid", "sbar", "correspondence_offset",
                              "alignment_defect", "verdict", "max_k1", "max_k2"), {}, True),
    (BertrandMateResult, placeholders("mate", "sampled", "report"), {}, True),
    (SphereReport, placeholders("grid", "a_values", "radius_sq", "centers", "is_spherical",
                                "radius", "center", "last_coefficient_nonzero",
                                "max_radius_spread", "max_center_spread",
                                "sphere_equation_residual", "tolerance"), {}, True),
    (EvoluteResult, placeholders("curve", "sampled", "grid", "speed_defect",
                                 "min_abs_slope"), {}, True),
    (InvoluteResult, placeholders("curve", "sampled", "grid"), {}, True),
    (InvoluteFrameReport, {"grid": (0.5, 1.0), "k3_max_rel_error": 1e-9, "w4_sign": 1,
                           "w4_alignment_defect": 1e-12, "evolute_match": 1e-10,
                           "involute_null_defect": 1e-12, "third_norm_defect": 1e-11,
                           "hypothesis_evidence": {"speed": 1.0}}, {}, True),
    (Num, {"value": 1.5}, {}, True),
    (Param, {"name": "t"}, {}, True),
    (Neg, {"arg": Param("t")}, {}, True),
    (BinOp, {"op": "+", "left": Num(1.0), "right": Param("t")}, {}, True),
    (IntPow, {"arg": Param("t"), "exponent": 3}, {}, True),
    (Call, {"func": "sin", "arg": Param("t")}, {}, True),
    (_Token, {"kind": "num", "text": "2.5", "pos": 4}, {}, True),
    (_Series, {"base": 0.5, "coeffs": np.array([1.0, 2.0])}, {}, False),
    (Jet, {"base": 0.5, "coeffs": np.array([1.0, 2.0])}, {}, False),
    (VecJet, {"base": 0.5, "coeffs": np.ones((2, 5))}, {}, False),
    (Frame, {"rows": np.eye(5)[:, :4], "t": 0.25, "curvatures": (0.0, 1.0),
             "closure_residual": 1e-12, "orientation": 1},
     {"t": None, "curvatures": (), "closure_residual": None, "orientation": None}, False),
    (Curve, {"dimension": 5, "components": tuple(parse(c, "s") for c in QUINTIC),
             "parameter": "s", "domain": (-0.2, 1.2)},
     {"parameter": "s", "domain": (0.0, 1.0)}, False),
    (SampledCurve, {"grid": np.array([0.0, 0.5, 1.0]), "points": np.ones((3, 4))},
     {}, False),
    (CurvatureProfile, {"dimension": 6,
                        "curvatures": (parse("1", "u"), parse("0.5", "u"), parse("u", "u")),
                        "parameter": "u"},
     {"parameter": "t"}, False),
]

IDS = [cls.__name__ for cls, *_ in RECORDS]


def test_every_record_class_with_fields_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    declaring = {cls for cls in subclasses(Record) if vars(cls).get("__annotations__")}
    assert len(declaring) == 24
    assert declaring <= {cls for cls, *_ in RECORDS}


def same_values(a, b):
    """Field values equal, arrays elementwise."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("cls, fields, defaults, by_value", RECORDS, ids=IDS)
def test_construction_by_position_keyword_and_default(cls, fields, defaults, by_value):
    by_position = cls(*fields.values())
    by_keyword = cls(**dict(reversed(fields.items())))
    for name, value in fields.items():
        assert same_values(getattr(by_position, name), value)
        assert same_values(getattr(by_keyword, name), value)
    required = {k: v for k, v in fields.items() if k not in defaults}
    with_defaults = cls(**required)
    for name, value in defaults.items():
        assert same_values(getattr(with_defaults, name), value)


@pytest.mark.parametrize("cls, fields, defaults, by_value", RECORDS, ids=IDS)
def test_construction_refuses_bad_arguments(cls, fields, defaults, by_value):
    with pytest.raises(TypeError):
        cls(*fields.values(), "one too many")
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=1)
    first, *rest = fields
    with pytest.raises(TypeError):
        cls(**{name: fields[name] for name in rest})  # the first field is missing
    with pytest.raises(TypeError):
        cls(fields[first], **fields)  # the first field given twice


@pytest.mark.parametrize("cls, fields, defaults, by_value", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, defaults, by_value):
    record = cls(*fields.values())
    for name in fields:
        kept = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is kept
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("cls, fields, defaults, by_value", RECORDS, ids=IDS)
def test_repr_names_every_field_in_order(cls, fields, defaults, by_value):
    record = cls(*fields.values())
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("cls, fields, defaults, by_value", RECORDS, ids=IDS)
def test_equality_and_hash(cls, fields, defaults, by_value):
    a, b = cls(*fields.values()), cls(*fields.values())
    assert a == a and not a != a
    assert a != tuple(fields.values())
    if not by_value:  # identity, as object
        assert a != b
        assert hash(a) == object.__hash__(a)
        assert len({a, b}) == 2
        return
    assert a == b and not a != b
    first = next(iter(fields))
    changed = cls(**{**fields, first: "another value"})
    assert a != changed
    if any(isinstance(v, dict) for v in fields.values()):
        with pytest.raises(TypeError):  # a dict field is not hashable
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


# the parser builds these on its hot path, each with its own __init__
HAND_WRITTEN = [(cls, fields) for cls, fields, *_ in RECORDS
                if cls in (Num, Param, Neg, BinOp, IntPow, Call, _Token)]


@pytest.mark.parametrize("cls, fields", HAND_WRITTEN, ids=[c.__name__ for c, _ in HAND_WRITTEN])
def test_a_hand_written_init_builds_what_the_generic_path_builds(cls, fields):
    assert cls.__init__ is not Record.__init__
    fast = cls(*fields.values())
    generic = object.__new__(cls)
    Record.__init__(generic, *fields.values())
    # the same attributes, an expression node's stored hash included
    assert vars(fast) == vars(generic)
    assert fast == generic and not fast != generic
    assert hash(fast) == hash(generic)
    assert repr(fast) == repr(generic)
    for record in (fast, generic):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
    assert vars(fast) == vars(generic)


def test_value_records_of_different_classes_differ():
    assert Neg(Param("t")) != IntPow(Param("t"), 1)
    assert SubspaceProfile(1, 0, 0, 1e-9) != SequenceReport(1, 0, 0)
    assert Num(2.0) == Num(2) and hash(Num(2.0)) == hash(Num(2))


def test_post_init_checks_still_run():
    comps = tuple(parse(c, "s") for c in QUINTIC)
    with pytest.raises(ValueError, match="components for dimension 6"):
        Curve(6, comps)
    with pytest.raises(ValueError, match="matching lengths"):
        SampledCurve(np.array([0.0, 1.0]), np.ones((3, 4)))
    with pytest.raises(ValueError, match="takes 3 curvature functions"):
        CurvatureProfile(6, (parse("1", "t"),))
    sampled = SampledCurve([0.0, 1.0], [[1.0, 2.0, 3.0, 4.0]] * 2)
    assert not sampled.grid.flags.writeable and sampled.points.dtype == float


@pytest.mark.parametrize("make", [
    lambda: Curve.from_strings(QUINTIC, domain=(-0.2, 1.2)),
    lambda: CurvatureProfile.from_strings(6, ["1", "0.5", "t"]),
], ids=["Curve", "CurvatureProfile"])
def test_cached_property_caches_on_the_instance(make):
    record = make()
    program = record._program
    assert record._program is program
    assert vars(record)["_program"] is program
    assert make()._program is not program


def test_importing_the_cli_loads_no_dataclasses():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    script = ("import sys, nullcartan.cli\n"
              "assert 'dataclasses' not in sys.modules, 'dataclasses imported'\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_no_source_file_generates_code():
    pattern = re.compile(r"dataclass|\bexec\(|\beval\(")
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted((SRC / "nullcartan").glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def test_an_expression_unpickled_in_another_process_hashes_as_built_here():
    env = dict(os.environ, PYTHONHASHSEED="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    script = ("import pickle, sys\nfrom nullcartan import parse\n"
              "sys.stdout.buffer.write(pickle.dumps(parse('s^2 + sin(s)')))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    here = parse("s^2 + sin(s)")
    there = pickle.loads(done.stdout)
    assert there == here and hash(there) == hash(here)
    assert {here: 1}[there] == 1
