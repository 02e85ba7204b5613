"""End-to-end tests of the command-line front end."""

from __future__ import annotations

import argparse
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pms
from pms import blowup, cohomology
from pms.atlas import (
    AtlasDocument,
    ValidationReport,
    dumps_document,
    loads_document,
)
from pms.blowup import CenterSpec, center_to_json
from pms.cli import _build_parser, main
from pms.laurent_core import LaurentPoly, poly_to_json
from pms.p2_catalog import (
    build_carpet,
    make_p2,
    solve_pullback_family,
    wcover_unit_classes,
)

mono = LaurentPoly.monomial
const = LaurentPoly.const


def write_plane_doc(tmp_path, name="x.json", m=-3, nontrivial=True):
    spec = make_p2(m, nontrivial=nontrivial)
    doc = AtlasDocument(spec.atlas, {spec.alpha.name: spec.alpha}, spec)
    path = tmp_path / name
    path.write_text(dumps_document(doc))
    return path


def write_carpet_doc(tmp_path, alpha, name="w.json", trivial=False):
    spec = build_carpet(alpha, trivial=trivial)
    u, v = wcover_unit_classes()
    doc = AtlasDocument(
        spec.atlas,
        {spec.alpha.name: spec.alpha, u.name: u, v.name: v},
        spec,
    )
    path = tmp_path / name
    path.write_text(dumps_document(doc))
    return path


def write_point_center(tmp_path):
    center = CenterSpec(
        "reduced", generators={"U2": (mono(2, (0, 1)), mono(2, (1, 1)))}
    )
    path = tmp_path / "center.json"
    path.write_text(json.dumps(center_to_json(center)))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_carpet_quasiprojective_example(capsys):
    code, out, err = run(
        capsys, "carpet", "--alpha", "3/4", "--query", "quasiprojective"
    )
    assert code == 0
    assert out == '{"answer":"yes","witness":[3,4]}\n'
    code, out, _ = run(
        capsys, "carpet", "--alpha", "-1", "--query", "quasiprojective"
    )
    assert code == 1
    assert json.loads(out)["answer"] == "no"
    code, out, _ = run(
        capsys, "carpet", "--alpha", "symbolic", "--query", "quasiprojective"
    )
    assert code == 1
    assert "al" in json.loads(out)["evidence"]["obstruction_at_0_1"]


@pytest.mark.parametrize("degrees, code, expected", [
    (("2", "3"), 1, '{"answer":"no","value_poly":[{"coeff":"2/1","exp":'
                    '[0,0,0]},{"coeff":"-3/1","exp":[0,0,1]}]}\n'),
    (("0", "1"), 1, '{"answer":"no","value_poly":[{"coeff":"-1/1","exp":'
                    '[0,0,1]}]}\n'),
    (("0", "0"), 0, '{"answer":"yes","value":"0/1"}\n'),
])
def test_symbolic_extends_bytes_are_pinned(capsys, degrees, code, expected):
    assert run(capsys, "carpet", "--alpha", "symbolic", "--query",
               "extends", *degrees) == (code, expected, "")


def test_carpet_other_queries(capsys):
    code, out, _ = run(
        capsys, "carpet", "--alpha", "1/2", "--query", "decompose",
        "--bound", "4",
    )
    assert code == 0
    parsed = json.loads(out)
    assert parsed["coefficients"] == ["1/1", "1/2"]
    assert parsed["report"]["status"] == "found"
    assert parsed["report"]["caveat"]

    code, out, _ = run(
        capsys, "carpet", "--alpha", "1/2", "--query", "extends", "1", "2"
    )
    assert code == 0
    assert json.loads(out) == {"answer": "yes", "value": "0/1"}
    code, out, _ = run(
        capsys, "carpet", "--alpha", "1/2", "--query", "extends", "1", "1"
    )
    assert code == 1
    assert json.loads(out) == {"answer": "no", "value": "1/2"}

    code, out, _ = run(capsys, "carpet", "--alpha", "1/2", "--query", "lattice")
    assert code == 0
    assert json.loads(out) == {"generator": [1, 2]}

    # usage problems
    assert run(capsys, "carpet", "--alpha", "symbolic", "--query",
               "decompose")[0] == 2
    assert run(capsys, "carpet", "--alpha", "1/2", "--query", "extends",
               "1")[0] == 2
    assert run(capsys, "carpet", "--alpha", "1/2", "--query", "nonsense")[0] == 2


def test_validate_good_and_malformed(tmp_path, capsys):
    path = write_plane_doc(tmp_path)
    code, out, _ = run(capsys, "validate", str(path))
    assert (code, out) == (0, "valid\n")

    bad = tmp_path / "bad.json"
    bad.write_text('{"variables": [,]}')
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "line 1" in err and "column" in err

    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "validate", str(missing))
    assert code == 2

    # a broken cocycle entry gives a domain failure, not a usage error
    data = json.loads(path.read_text())
    name = data["double_structure"]["alpha"]
    data["cocycles"][name]["U0,U1"] = poly_to_json(mono(2, (2, 2)))
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", str(broken))
    assert code == 1
    assert json.loads(out)["ok"] is False
    assert json.loads(out)["failures"]

    # a reverse-order entry must obey D_10 = -alpha_10 D_01, which is not zero
    data = json.loads(path.read_text())
    data["double_structure"]["D"]["U1,U0"] = [[], []]
    reversed_entry = tmp_path / "reversed.json"
    reversed_entry.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", str(reversed_entry))
    assert code == 1
    assert any("(U1,U0)" in f for f in json.loads(out)["failures"])


def test_unknown_chart_in_cocycle_data(tmp_path, capsys):
    path = write_plane_doc(tmp_path)
    data = json.loads(path.read_text())
    name = data["double_structure"]["alpha"]
    data["cocycles"][name]["U0,X9"] = poly_to_json(mono(2, (1, 0)))
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert any("X9" in f for f in json.loads(out)["failures"])
    code, out, err = run(
        capsys, "cohomology", str(path), "--op", "coboundary", "--bound", "2"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "X9" in err


# (file, key path, replacement): each makes a JSON value the wrong shape
MALFORMED_INPUTS = [
    ("atlas", ("charts",), [1]),
    ("atlas", ("variables",), 5),
    ("atlas", ("overlaps",), []),
    ("atlas", ("cocycles",), []),
    ("atlas", ("charts", 0, "monoid_generators", 0), 5),
    ("atlas", ("truncation_order",), 2.7),
    ("center", ("per_chart",), []),
    ("center", ("per_chart", "U2", "generators"), 5),
    ("center", ("per_chart", "U2", "generators", 0, 0, "exp"), 5),
]
# JSON true and false where an integer belongs (bool is an int subclass)
BOOLEAN_INPUTS = [
    ("atlas", ("truncation_order",), True),
    ("atlas", ("charts", 1, "monoid_generators", 0), [True, 0]),
    ("center", ("per_chart", "U2", "generators", 0, 0, "exp"), [False, True]),
]
# well-shaped values that no document may hold: double-scheme data at order
# three, and a variable named twice
BAD_VALUE_INPUTS = [
    ("atlas", ("truncation_order",), 3),
    ("atlas", ("variables",), ["lam", "lam"]),
]


@pytest.mark.parametrize(
    "which, path, value",
    MALFORMED_INPUTS + BOOLEAN_INPUTS + BAD_VALUE_INPUTS,
    ids=[f"{w}:{'.'.join(map(str, p))}" for w, p, _ in MALFORMED_INPUTS]
    + [f"{w}:{'.'.join(map(str, p))}:bool" for w, p, _ in BOOLEAN_INPUTS]
    + [f"{w}:{'.'.join(map(str, p))}:value" for w, p, _ in BAD_VALUE_INPUTS],
)
def test_malformed_json_exits_2(tmp_path, capsys, which, path, value):
    atlas = write_plane_doc(tmp_path)
    center = write_point_center(tmp_path)
    target = atlas if which == "atlas" else center
    data = json.loads(target.read_text())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    target.write_text(json.dumps(data))
    blowup = ("blowup", str(atlas), "--center", str(center), "--kind",
              "reduced")
    if which == "atlas":
        # every verb that reads a document, the bad one second for the pair
        good = write_plane_doc(tmp_path, name="good.json")
        argvs = [
            ("validate", str(atlas)),
            blowup,
            ("classify-iso", str(good), str(atlas), "--bound", "3"),
            ("cohomology", str(atlas), "--op", "coboundary", "--bound", "2"),
        ]
    else:
        argvs = [blowup]
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {target}: "), (argv, err)
        assert err.count("\n") == 1


def test_classify_iso_exit_codes(tmp_path, capsys):
    path = write_plane_doc(tmp_path)
    code, out, _ = run(
        capsys, "classify-iso", str(path), str(path), "--bound", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "found"
    assert report["witness"]["tau"] == "1/1"

    a = write_carpet_doc(tmp_path, Fraction(0), name="a.json")
    b = write_carpet_doc(tmp_path, Fraction(1), name="b.json")
    code, out, _ = run(capsys, "classify-iso", str(a), str(b), "--bound", "3")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "none_within_bound"
    assert report["bound"] == 3
    assert report["caveat"]


def test_classify_iso_against_zero_structure(tmp_path, capsys):
    """Only tau = 0 maps the carpet onto D = 0, so there is no isomorphism."""
    path = write_carpet_doc(tmp_path, Fraction(1, 2))
    data = json.loads(path.read_text())
    D = data["double_structure"]["D"]
    for pair in D:
        D[pair] = [[] for _ in D[pair]]
    zeroed = tmp_path / "zero.json"
    zeroed.write_text(json.dumps(data))
    code, out, err = run(
        capsys, "classify-iso", str(path), str(zeroed), "--bound", "3"
    )
    assert (code, err) == (1, "")
    assert json.loads(out)["status"] == "none_within_bound"


def test_blowup_round_trip_and_determinism(tmp_path, capsys):
    path = write_plane_doc(tmp_path)
    center = write_point_center(tmp_path)
    code, out, _ = run(
        capsys, "blowup", str(path), "--center", str(center), "--kind",
        "reduced",
    )
    assert code == 0
    again = run(
        capsys, "blowup", str(path), "--center", str(center), "--kind",
        "reduced",
    )
    assert again == (0, out, "")

    blown = tmp_path / "blown.json"
    blown.write_text(out)
    code, text, _ = run(capsys, "validate", str(blown))
    assert (code, text) == (0, "valid\n")
    doc = loads_document(out)
    assert list(doc.atlas.chart_names()) == [
        "U0/D+(1)", "U1/D+(1)", "U2/D+(mu)", "U2/D+(lam*mu)"
    ]
    assert {"pullback", "exceptional"} <= set(doc.cocycles)

    # the declared kind must match the center file
    code, _, err = run(
        capsys, "blowup", str(path), "--center", str(center), "--kind", "good"
    )
    assert code == 2
    assert "kind" in err


def test_blowup_hypersurface_via_cli(tmp_path, capsys):
    path = write_plane_doc(tmp_path)
    center = CenterSpec(
        "hypersurface",
        generators={
            "U0": (mono(2, (-1, 0)),),
            "U1": (const(2, 1),),
            "U2": (mono(2, (0, 1)),),
        },
    )
    cpath = tmp_path / "line.json"
    cpath.write_text(json.dumps(center_to_json(center)))
    code, out, _ = run(
        capsys, "blowup", str(path), "--center", str(cpath), "--kind",
        "hypersurface",
    )
    assert code == 0
    doc = loads_document(out)
    assert list(doc.atlas.chart_names()) == ["U0", "U1", "U2"]
    blown = tmp_path / "twisted.json"
    blown.write_text(out)
    assert run(capsys, "validate", str(blown))[0] == 0


def test_blowup_rejects_an_invalid_input(tmp_path, capsys):
    """A bad input is reported against the input file, not the output."""
    path = write_plane_doc(tmp_path)
    data = json.loads(path.read_text())
    # lam^-5 mu^-7 d/dlam does not preserve the overlap rings
    data["double_structure"]["D"]["U0,U1"] = [
        poly_to_json(mono(2, (-5, -7))), []
    ]
    path.write_text(json.dumps(data))
    center = write_point_center(tmp_path)
    code, out, err = run(
        capsys, "blowup", str(path), "--center", str(center), "--kind",
        "reduced",
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert "U0/D+" not in err


@pytest.mark.parametrize("argv", [
    ("classify-iso", "good.json", "bad.json", "--bound", "3"),
    ("cohomology", "bad.json", "--op", "coboundary", "--bound", "3"),
], ids=["classify-iso", "cohomology"])
def test_solver_verbs_reject_an_invalid_input(tmp_path, capsys, argv):
    """An entry on (U0,U2) that contradicts the rest of the data is an input
    error, not a "none" about a structure the file does not state: the
    fold would walk (U0,U2) and never read (U1,U2)."""
    write_plane_doc(tmp_path, "good.json")
    path = write_plane_doc(tmp_path, "bad.json")
    data = json.loads(path.read_text())
    data["double_structure"]["D"]["U0,U2"] = [
        poly_to_json(mono(2, (1, 1))), []
    ]
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *(str(tmp_path / a) if a.endswith(".json")
                                   else a for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(
        f"error: {path}: invalid document: vector-field entry on (U1,U2) is "
        "inconsistent with the rest of the data; "
    ) and err.count("\n") == 1


def test_blowup_of_a_valid_input_to_an_invalid_output_exits_3(
    tmp_path, capsys, monkeypatch
):
    def failing_validation(spec):
        return ValidationReport(["planted failure"])

    monkeypatch.setattr(blowup, "validate_double_scheme", failing_validation)
    code, out, err = run(
        capsys, "blowup", str(write_plane_doc(tmp_path)), "--center",
        str(write_point_center(tmp_path)), "--kind", "reduced",
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: internal self-check failed: "
        "blowup_reduced produced invalid output: planted failure\n"
    )


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    """The JSON decoder's RecursionError is reported as a malformed input,
    with the file's path like any other decoding error."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: maximum recursion depth exceeded")
    assert err.count("\n") == 1


def test_negative_rationals_use_the_equals_form(capsys):
    code, out, err = run(
        capsys, "carpet", "--alpha=-1/2", "--query", "quasiprojective"
    )
    assert (code, err) == (1, "")
    assert json.loads(out)["answer"] == "no"
    code, out, err = run(capsys, "gamma", "--coeffs=-1,0", "--query", "delta")
    assert (code, err) == (0, "")
    assert json.loads(out)["tangent"] == ["-1/1", "0/1"]


def test_family_matches_library(capsys):
    code, out, _ = run(
        capsys, "family", "--m", "-3", "--p", "1", "--ansatz-bound", "4"
    )
    assert code == 0
    parsed = json.loads(out)
    direct = solve_pullback_family(-3, 1, ansatz_bound=4)
    assert parsed["parameter_dim"] == direct.parameter_dim == 1
    assert parsed["free_parameters"] == list(direct.free_parameters)
    assert parsed["caveat"]


@pytest.mark.parametrize("argv", [
    ("--m", "-2", "--p", "0"),
    ("--m", "-3", "--p", "0", "--ansatz-bound", "0"),
    ("--m", "-3", "--p", "0", "--ansatz-bound", "2"),
])
def test_family_outside_domain_exits_2(capsys, argv):
    code, out, err = run(capsys, "family", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["\r", "\x1b[2J\x1b[31mred", "a\nb\tc"])
def test_error_line_escapes_control_characters(capsys, name):
    code, out, err = run(capsys, "validate", name)
    assert (code, out) == (2, "")
    line, end = err[:-1], err[-1:]
    assert end == "\n" and line.startswith("error: ")
    assert line.isprintable()
    assert name.encode("unicode_escape").decode("ascii") in line


def test_self_check_failure_exits_3(capsys, monkeypatch):
    def failing_check(*args, **kwargs):
        raise AssertionError("witness fails resubstitution on (W0,W1)")

    monkeypatch.setattr(cohomology, "_verify_resubstitution", failing_check)
    code, out, err = run(capsys, "carpet", "--alpha", "1/2", "--query",
                         "decompose")
    assert (code, out) == (3, "")
    assert err == (
        "error: internal self-check failed: "
        "witness fails resubstitution on (W0,W1)\n"
    )


def test_gamma_queries(capsys):
    code, out, _ = run(capsys, "gamma", "--coeffs", "1/2,0", "--query", "delta")
    assert code == 0
    assert out == ('{"frame":"t-frame at the chart origin",'
                   '"tangent":["1/2","0/1"]}\n')

    code, out, _ = run(
        capsys, "gamma", "--coeffs", "1,0", "--query", "iso-with", "1,0",
        "--bound", "3",
    )
    assert code == 0
    assert json.loads(out)["answer"] == "yes"
    code, out, _ = run(
        capsys, "gamma", "--coeffs", "1,0", "--query", "iso-with", "0,1",
        "--bound", "3",
    )
    assert code == 1
    parsed = json.loads(out)
    assert parsed == {
        "answer": "no", "bound": 3, "caveat": parsed["caveat"]
    }
    # over the trivial structure proportional invariants become isomorphic
    code, out, _ = run(
        capsys, "gamma", "--coeffs", "1,0", "--query", "iso-with", "2,0",
        "--trivial", "--bound", "3",
    )
    assert code == 0
    # with the full evaluation space at m=0 every pair matches
    code, out, _ = run(
        capsys, "gamma", "--coeffs", "1,0", "--query", "iso-with", "0,1",
        "--m", "0", "--bound", "3",
    )
    assert code == 0

    assert run(capsys, "gamma", "--coeffs", "1,0", "--query", "iso-with")[0] == 2


@pytest.mark.parametrize("extra", [("2,0", "--trivial"), ("0,1", "--m", "0")])
def test_gamma_iso_rejects_negative_bound_over_trivial_structure(capsys, extra):
    code, out, err = run(
        capsys, "gamma", "--coeffs", "1,0", "--query", "iso-with", *extra,
        "--bound", "-1",
    )
    assert (code, out) == (2, "")
    assert err == "error: bound must be non-negative\n"
    assert run(capsys, "gamma", "--coeffs", "1", "--query", "delta")[0] == 2
    assert run(capsys, "gamma", "--coeffs", "x,y", "--query", "delta")[0] == 2


def test_cohomology_ops(tmp_path, capsys):
    path = write_carpet_doc(tmp_path, Fraction(1, 2))
    u, v = (c.name for c in wcover_unit_classes())

    values = {}
    for a, b in ((u, u), (u, v), (v, v)):
        code, out, _ = run(
            capsys, "cohomology", str(path), "--op", "residue",
            "--bundle", a, "--with", b,
        )
        assert code == 0
        values[(a, b)] = json.loads(out)["value"]
    assert values == {(u, u): "1/1", (u, v): "0/1", (v, v): "-1/1"}

    code, out, _ = run(
        capsys, "cohomology", str(path), "--op", "cup",
        "--bundle", u, "--with", v,
    )
    assert code == 0
    triples = json.loads(out)["triples"]
    assert sorted(triples) == [
        "W0,W1,W2", "W0,W1,W3", "W0,W2,W3", "W1,W2,W3"
    ]

    code, out, _ = run(
        capsys, "cohomology", str(path), "--op", "obstruction", "--bundle", u
    )
    assert code == 0
    assert json.loads(out) == {"value": "1/1"}

    # the half-integer ribbon class is not a coboundary
    code, out, _ = run(
        capsys, "cohomology", str(path), "--op", "coboundary", "--bound", "3"
    )
    assert code == 1
    assert json.loads(out)["status"] == "none_within_bound"
    assert json.loads(out)["bound"] == 3

    # the zero class written in trivialized form is
    trivial = write_carpet_doc(
        tmp_path, Fraction(0), name="trivial.json", trivial=True
    )
    code, out, _ = run(
        capsys, "cohomology", str(trivial), "--op", "coboundary",
        "--bound", "3",
    )
    assert code == 0
    assert json.loads(out)["status"] == "found"

    # unknown cocycle names are usage errors
    code, _, err = run(
        capsys, "cohomology", str(path), "--op", "residue",
        "--bundle", "nope", "--with", u,
    )
    assert code == 2
    assert "unknown cocycle" in err


def one_variable_doc(names="AB") -> dict:
    """A valid document in the one variable x: charts A = k[x], B = k[x^-1]
    (and C = k[x]), frames 1, x^2 (and 1), the frame ratios as the bundle L
    and D = 0 over it."""
    def term(e):
        return [{"coeff": "1/1", "exp": [e]}]

    pairs = [f"{a},{b}" for i, a in enumerate(names) for b in names[i + 1:]]
    bundle = {"A,B": term(2), "B,C": term(-2)}
    bundle = {pair: bundle[pair] for pair in pairs if pair in bundle}
    return {
        "variables": ["x"], "truncation_order": 2, "residue_scale": "1",
        "charts": [{"name": n, "monoid_generators": [[-1 if n == "B" else 1]]}
                   for n in names],
        "overlaps": {pair: [[1], [-1]] for pair in pairs},
        "frames": {n: term(2 if n == "B" else 0) for n in names},
        "cocycles": {"L": bundle},
        "double_structure": {"alpha": "L", "D": {p: [[]] for p in bundle}},
    }


@pytest.mark.parametrize("names, op", [
    ("AB", "residue"), ("AB", "cup"), ("AB", "obstruction"),
    ("ABC", "obstruction"),
])
def test_one_variable_pairings_exit_2(tmp_path, capsys, names, op):
    """The residue, cup and obstruction read two variables: a valid
    one-variable document gets one error line, not a traceback or a value."""
    path = tmp_path / "line.json"
    path.write_text(json.dumps(one_variable_doc(names)))
    assert run(capsys, "validate", str(path))[:2] == (0, "valid\n")
    code, out, err = run(capsys, "cohomology", str(path), "--op", op,
                         "--bundle", "L", "--with", "L")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "two variables" in err
    code, out, _ = run(capsys, "cohomology", str(path), "--op", "coboundary")
    assert code == 0 and json.loads(out)["status"] == "found"


def test_unknown_verbs_and_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["validate"])  # missing required positional
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["carpet", "--alpha", "1/2", "--query", "lattice", "--wat"])
    assert exc.value.code == 2


def test_blowup_kind_choices_are_the_center_kinds():
    verbs = next(action for action in _build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    kind = next(action for action in verbs.choices["blowup"]._actions
                if action.dest == "kind")
    assert kind.choices == blowup.CENTER_KINDS


SRC = Path(__file__).resolve().parent.parent / "src"
# run one command in a fresh interpreter; print its exit code and the pms
# modules it loaded
# the exit code, the pms modules, and which of ``dataclasses`` and the
# ``inspect`` it imports a cold process has loaded
IMPORT_PROBE = """
import contextlib, io, json, sys
{imports}
with contextlib.redirect_stdout(io.StringIO()):
    code = {call}
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("pms.")),
                  sorted({{"dataclasses", "inspect"}} & set(sys.modules))]))
"""


def loaded_modules(cwd, imports, call="None"):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    probe = IMPORT_PROBE.format(imports=imports, call=call)
    done = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


BASE = ["pms.atlas", "pms.cli", "pms.laurent_core"]
SOLVERS = BASE + ["pms.cohomology", "pms.linear"]


@pytest.mark.parametrize("argv, code, modules", [
    (("validate", "x.json"), 0, BASE),
    (("classify-iso", "x.json", "x.json", "--bound", "1"), 0, SOLVERS),
    (("cohomology", "x.json", "--op", "coboundary", "--bound", "1"), 1,
     SOLVERS),
    (("family", "--m", "-3", "--p", "0", "--ansatz-bound", "4"), 0,
     SOLVERS + ["pms.p2_catalog"]),
    (("carpet", "--alpha", "1/2", "--query", "lattice"), 0,
     SOLVERS + ["pms.p2_catalog"]),
    (("gamma", "--coeffs", "1,0", "--query", "delta"), 0,
     SOLVERS + ["pms.good_points"]),
    (("gamma", "--coeffs", "1,0", "--query", "iso-with", "2,0", "--bound",
      "1"), 1, SOLVERS + ["pms.good_points", "pms.p2_catalog"]),
    (("blowup", "x.json", "--center", "center.json", "--kind", "reduced"), 0,
     SOLVERS + ["pms.blowup", "pms.truncated_ring"]),
], ids=["validate", "classify-iso", "cohomology", "family", "carpet",
        "gamma-delta", "gamma-iso-with", "blowup"])
def test_each_verb_loads_only_the_modules_it_runs(tmp_path, argv, code,
                                                    modules):
    write_plane_doc(tmp_path)
    write_point_center(tmp_path)
    assert loaded_modules(
        tmp_path, "import pms.cli", f"pms.cli.main({list(argv)!r})"
    ) == [code, sorted(modules), []]


def test_the_atlas_module_loads_no_truncated_ring(tmp_path):
    assert loaded_modules(tmp_path, "import pms.atlas") == [
        None, ["pms.atlas", "pms.laurent_core"], []
    ]


def test_no_pms_module_loads_dataclasses_or_inspect(tmp_path):
    """The value classes are ``laurent_core.Record``s, so importing every
    layer builds no code and loads neither module."""
    imports = "import pms.cli, pms.blowup, pms.p2_catalog, pms.good_points"
    layers = sorted(f"pms.{m.name}" for m in pkgutil.iter_modules(pms.__path__))
    assert loaded_modules(tmp_path, imports) == [None, layers, []]
