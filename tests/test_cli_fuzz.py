"""Fuzz the command-line front end: every input ends in a documented exit.

Each run calls ``pms.cli.main`` in-process and must end in exit code 0, 1, 2
or 3.  Successes and domain answers print JSON (``validate`` prints
``valid``); usage errors and malformed input print one ``error:`` line on
stderr, or argparse's usage text ending in its ``error:`` line.  Any other
exception is a traceback the CLI would have printed, and fails the test.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pms.atlas import AtlasDocument, dumps_document
from pms.blowup import CenterSpec, center_to_json
from pms.cli import main
from pms.laurent_core import LaurentPoly
from pms.p2_catalog import make_p2

# a fixed example count and no deadline keep the suite steady on two cores;
# derandomized, every run of the suite tries the same inputs
FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _plane_document() -> dict:
    spec = make_p2(-3)
    doc = AtlasDocument(spec.atlas, {spec.alpha.name: spec.alpha}, spec)
    return json.loads(dumps_document(doc))


def _point_center() -> dict:
    mono = LaurentPoly.monomial
    center = CenterSpec(
        "reduced", generators={"U2": (mono(2, (0, 1)), mono(2, (1, 1)))}
    )
    return center_to_json(center)


def _line_document() -> dict:
    """A valid document in the one variable x: charts A = k[x] and
    B = k[x^-1], frames 1 and x^2, their ratio as the bundle L and D = 0
    over it."""
    def term(e):
        return [{"coeff": "1/1", "exp": [e]}]

    return {
        "variables": ["x"], "truncation_order": 2, "residue_scale": "1",
        "charts": [{"name": "A", "monoid_generators": [[1]]},
                   {"name": "B", "monoid_generators": [[-1]]}],
        "overlaps": {"A,B": [[1], [-1]]},
        "frames": {"A": term(0), "B": term(2)},
        "cocycles": {"L": {"A,B": term(2)}},
        "double_structure": {"alpha": "L", "D": {"A,B": [[]]}},
    }


PLANE = _plane_document()
LINE = _line_document()
CENTER = _point_center()
BUNDLE = PLANE["double_structure"]["alpha"]


def _paths(node, prefix=()):
    """Every key path into a JSON value, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


DOC_PATHS = tuple(_paths(PLANE))
LINE_PATHS = tuple(_paths(LINE))
CENTER_PATHS = tuple(_paths(CENTER))

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-3, 3, allow_nan=False)
    | st.sampled_from(["1/1", "1/0", "-1/2", "x", "", "U0", "U2", BUNDLE])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


CHARTS = {chart["name"] for chart in PLANE["charts"] + LINE["charts"]}
# new names for a renamed chart or chart-pair key: unknown charts, reversed
# and degenerate pairs
KEYS = st.sampled_from(["U0,X9", "U1,U0", "U0,U0", "X9", "U2,U1"])

# the bundle cocycle with one more entry, on a pair naming an unknown chart
UNKNOWN_CHART = copy.deepcopy(PLANE)
UNKNOWN_CHART["cocycles"][BUNDLE]["U0,X9"] = PLANE["cocycles"][BUNDLE]["U0,U1"]


def _names_charts(key) -> bool:
    return isinstance(key, str) and set(key.split(",")) <= CHARTS


@st.composite
def mutated(draw, document, paths):
    """``document`` with one to three values replaced, deleted or re-keyed.

    Only keys that name charts or chart pairs are renamed.
    """
    keyed = [path for path in paths if path and _names_charts(path[-1])]
    data = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["delete", "replace", "rename"]))
        path = draw(st.sampled_from(keyed if action == "rename" else paths))
        if not path:
            data = draw(JSON_VALUES)
            continue
        parent = data
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed this path
        if action == "delete":
            del parent[path[-1]]
        elif action == "replace":
            parent[path[-1]] = draw(JSON_VALUES)
        else:
            parent[draw(KEYS)] = parent.pop(path[-1])
    return data


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(argv, code, out, err):
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code in (0, 1):
        if out.startswith("usage: pms"):  # --help
            return
        assert out == "valid\n" or json.loads(out) is not None, argv
        return
    assert out == "", (argv, out)
    # split on newlines only: fuzzed arguments echoed back may hold \r or \f
    lines = err.split("\n")
    assert len(lines) > 1 and lines.pop() == "", (argv, err)
    if lines[0].startswith("usage: pms"):
        assert code == 2 and ": error: " in lines[-1], (argv, err)
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"dir": root / "a-directory", "missing": root / "missing.json"}
    paths["dir"].mkdir()
    for name, text in (
        ("plane", json.dumps(PLANE)),
        ("center", json.dumps(CENTER)),
        ("broken", '{"variables": [,]}'),
    ):
        paths[name] = root / f"{name}.json"
        paths[name].write_text(text)
    return {name: str(path) for name, path in paths.items()}


VERB_ARGS = {
    "validate": lambda doc, center: [doc],
    "blowup": lambda doc, center: [
        doc, "--center", center, "--kind", "reduced",
    ],
    "cohomology/coboundary": lambda doc, center: [
        doc, "--op", "coboundary", "--bound", "2",
    ],
    "cohomology/obstruction": lambda doc, center: [
        doc, "--op", "obstruction", "--bundle", BUNDLE,
    ],
    "cohomology/residue": lambda doc, center: [
        doc, "--op", "residue", "--bundle", BUNDLE, "--with", BUNDLE,
    ],
}


@FUZZ
@given(
    case=st.sampled_from(sorted(VERB_ARGS)),
    doc=mutated(PLANE, DOC_PATHS),
    center=st.none() | mutated(CENTER, CENTER_PATHS),
)
@example(case="validate", doc=UNKNOWN_CHART, center=None)
@example(case="cohomology/coboundary", doc=UNKNOWN_CHART, center=None)
def test_mutated_documents_exit_cleanly(tmp_path_factory, case, doc, center):
    root = tmp_path_factory.getbasetemp()
    doc_path, center_path = root / "mutated.json", root / "mutated-center.json"
    doc_path.write_text(json.dumps(doc))
    center_path.write_text(json.dumps(CENTER if center is None else center))
    argv = [case.split("/")[0]]
    argv += VERB_ARGS[case](str(doc_path), str(center_path))
    assert_clean_exit(argv, *run_cli(argv))


@FUZZ
@given(
    op=st.sampled_from(["coboundary", "cup", "residue", "obstruction"]),
    doc=st.just(LINE) | mutated(LINE, LINE_PATHS),
)
def test_mutated_one_variable_documents_exit_cleanly(tmp_path_factory, op,
                                                     doc):
    """The ``cohomology`` operations on the one-variable document, as it is
    and mutated, where the pairings have no two variables to read."""
    path = tmp_path_factory.getbasetemp() / "mutated-line.json"
    path.write_text(json.dumps(doc))
    argv = ["cohomology", str(path), "--op", op, "--bundle", "L",
            "--with", "L", "--bound", "2"]
    assert_clean_exit(argv, *run_cli(argv))


def _small_or_not_int(text):
    """Keep fuzzed bounds small: argparse reads any ``int()`` text as a number."""
    try:
        return abs(int(text)) <= 5
    except ValueError:
        return True


def _tokens(files):
    paths = st.sampled_from(sorted(files.values()))
    words = st.sampled_from([
        "--m", "--p", "--ansatz-bound", "--bound", "--op", "--bundle",
        "--with", "--center", "--kind", "coboundary", "cup", "residue",
        "obstruction", "reduced", "good", "hypersurface", BUNDLE,
    ])
    numbers = st.integers(-4, 5).map(str) | st.sampled_from(["1/2", "x", ""])
    text = st.text(max_size=4).filter(_small_or_not_int)
    return st.lists(paths | words | numbers | text, max_size=8)


def _structured(files, verb):
    """Argument lists with the verb's options in place and fuzzed values."""
    doc = st.sampled_from(sorted(files.values()))
    small = st.integers(-2, 4).map(str) | st.sampled_from(["x", "1/2", ""])
    if verb == "validate":
        return st.tuples(doc).map(list)
    if verb == "blowup":
        return st.tuples(
            doc, st.just("--center"), doc, st.just("--kind"),
            st.sampled_from(["reduced", "good", "hypersurface", "x"]),
        ).map(list)
    if verb == "family":
        return st.tuples(
            st.just("--m"), st.sampled_from(["-4", "-3", "0", "x"]),
            st.just("--p"), st.integers(-1, 9).map(str) | small,
            st.just("--ansatz-bound"), small,
        ).map(list)
    return st.tuples(
        doc, st.just("--op"),
        st.sampled_from(["coboundary", "cup", "residue", "obstruction", "x"]),
        st.just("--bundle"), st.sampled_from([BUNDLE, "x"]),
        st.just("--with"), st.sampled_from([BUNDLE, "x"]),
        st.just("--bound"), small,
    ).map(list)


@FUZZ
@given(data=st.data())
def test_fuzzed_arguments_exit_cleanly(files, data):
    verb = data.draw(st.sampled_from(["validate", "blowup", "family",
                                      "cohomology"]))
    rest = data.draw(_structured(files, verb) | _tokens(files))
    argv = [verb] + rest
    assert_clean_exit(argv, *run_cli(argv))


HUGE = "100000000000"
OVERSIZED = {
    "family": lambda f: ["family", "--m", "-3", "--p", "0",
                         "--ansatz-bound", HUGE],
    "classify-iso": lambda f: ["classify-iso", f["plane"], f["plane"],
                               "--bound", HUGE],
    "cohomology": lambda f: ["cohomology", f["plane"], "--op", "coboundary",
                             "--bound", HUGE],
    "carpet": lambda f: ["carpet", "--alpha", "1/2", "--query", "decompose",
                         "--bound", HUGE],
    "gamma": lambda f: ["gamma", "--coeffs", "1,0", "--query", "iso-with",
                        "0,1", "--bound", HUGE],
    "gamma/trivial": lambda f: ["gamma", "--coeffs", "1,0", "--query",
                                "iso-with", "2,0", "--trivial", "--bound",
                                HUGE],
}


@pytest.mark.parametrize("verb", sorted(OVERSIZED))
def test_an_oversized_bound_exits_2(files, verb):
    """Every bounded verb refuses a box too large to build before it
    allocates one, with exit code 2 and one ``error:`` line."""
    argv = OVERSIZED[verb](files)
    code, out, err = run_cli(argv)
    assert_clean_exit(argv, code, out, err)
    assert code == 2
    assert err == (f"error: bound {HUGE} is too large: its box in 2 variables"
                   f" would hold over 10000 exponents\n")
