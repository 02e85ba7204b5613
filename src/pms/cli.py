"""Command-line front end: validation, blow-ups, classification, queries.

All structured output is JSON with sorted keys, so identical invocations
produce identical bytes.  Exit codes: 0 for success or a positive answer,
1 for a negative or not-found answer to a yes/no question, 2 for usage
errors, malformed input files and an invalid document given to ``blowup``,
``classify-iso`` or ``cohomology``, 3 when an internal self-check (solver
re-verification, witness resubstitution, family cross-checks, the
validation of a blow-up's output) fails.

Each verb imports its solver modules when it runs, so one command loads
``pms.atlas``, ``pms.laurent_core`` and only the modules its verb needs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .atlas import (
    CENTER_KINDS,
    AtlasDocument,
    DoubleSchemeSpec,
    dumps_document,
    document_from_json,
    validate_double_scheme,
    validate_mult_cocycle,
)
from .laurent_core import (
    LaurentPoly,
    format_rational,
    parse_rational,
    poly_to_json,
)


class CliError(Exception):
    """A usage or input problem; reported on stderr with exit code 2."""


def _emit(payload) -> None:
    sys.stdout.write(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    )


def _load(path: str, parse, *args):
    """``parse`` of the JSON in ``path``, with every error naming the file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}")
    try:
        return parse(json.loads(text), *args)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    except (ValueError, RecursionError) as exc:  # bad value, deep nesting
        raise CliError(f"{path}: {exc}")


def _load_document(path: str) -> AtlasDocument:
    return _load(path, document_from_json)


def _require_double(doc: AtlasDocument, path: str) -> DoubleSchemeSpec:
    if doc.double is None:
        raise CliError(f"{path}: document carries no double structure")
    return doc.double


def _parse_coeff_pair(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"expected two comma-separated rationals, got {text!r}")
    return tuple(parse_rational(part.strip()) for part in parts)


def _rational_or_poly(value) -> dict:
    if isinstance(value, LaurentPoly):
        return {"value_poly": poly_to_json(value)}
    return {"value": format_rational(Fraction(value))}


# -- verb handlers ------------------------------------------------------


def _document_failures(doc: AtlasDocument) -> list[str]:
    if doc.double is not None:
        failures = list(validate_double_scheme(doc.double).failures)
        covered = doc.double.alpha.name
    else:
        failures = list(doc.atlas.structure_failures())
        covered = None
    for name in sorted(doc.cocycles):
        if name == covered:
            continue
        failures.extend(validate_mult_cocycle(doc.atlas, doc.cocycles[name]).failures)
    return failures


def _require_valid(doc: AtlasDocument, path: str) -> None:
    failures = _document_failures(doc)
    if failures:
        raise CliError(f"{path}: invalid document: " + "; ".join(failures))


def _cmd_validate(args) -> int:
    doc = _load_document(args.atlas)
    failures = _document_failures(doc)
    if not failures:
        sys.stdout.write("valid\n")
        return 0
    _emit({"ok": False, "failures": failures})
    return 1


def _cmd_blowup(args) -> int:
    from .blowup import (
        blowup_good,
        blowup_hypersurface,
        blowup_reduced,
        center_from_json,
    )

    doc = _load_document(args.atlas)
    spec = _require_double(doc, args.atlas)
    center = _load(args.center, center_from_json, doc.atlas.nvars)
    if center.kind != args.kind:
        raise CliError(
            f"--kind {args.kind} does not match the center file "
            f"(kind {center.kind})"
        )
    build = {
        "reduced": blowup_reduced,
        "good": blowup_good,
        "hypersurface": blowup_hypersurface,
    }[args.kind]
    _require_valid(doc, args.atlas)
    result = build(spec, center)
    cocycles = {result.spec.alpha.name: result.spec.alpha}
    for extra in (result.pullback, result.exceptional):
        if extra is not None:
            cocycles.setdefault(extra.name, extra)
    out = AtlasDocument(result.spec.atlas, cocycles, result.spec)
    sys.stdout.write(dumps_document(out))
    return 0


def _valid_double(path: str) -> DoubleSchemeSpec:
    doc = _load_document(path)
    spec = _require_double(doc, path)
    _require_valid(doc, path)
    return spec


def _cmd_classify_iso(args) -> int:
    from .cohomology import iso_decide

    first = _valid_double(args.first)
    second = _valid_double(args.second)
    witness, report = iso_decide(first, second, bound=args.bound)
    _emit(report)
    return 0 if witness is not None else 1


def _cmd_family(args) -> int:
    from .p2_catalog import solve_pullback_family

    family = solve_pullback_family(args.m, args.p, ansatz_bound=args.ansatz_bound)
    _emit(family.to_json())
    return 0


def _parse_alpha(text: str):
    if text == "symbolic":
        return "symbolic"
    return parse_rational(text)


def _cmd_carpet(args) -> int:
    from .p2_catalog import (
        carpet_decompose,
        carpet_obstruction,
        extension_lattice,
        quasiprojective,
    )

    alpha = _parse_alpha(args.alpha)
    query, extras = args.query[0], args.query[1:]
    if query == "quasiprojective":
        if extras:
            raise CliError("quasiprojective takes no extra arguments")
        out = quasiprojective(alpha)
        _emit(out)
        return 0 if out["answer"] == "yes" else 1
    if query == "decompose":
        if extras:
            raise CliError("decompose takes no extra arguments")
        if alpha == "symbolic":
            raise CliError("decompose needs a rational alpha")
        pair, report = carpet_decompose(alpha, bound=args.bound)
        out = {"report": report}
        if pair is not None:
            out["coefficients"] = [format_rational(c) for c in pair]
        _emit(out)
        return 0 if pair is not None else 1
    if query == "extends":
        if len(extras) != 2:
            raise CliError("extends needs two integer degrees: extends M N")
        try:
            m, n = (int(x) for x in extras)
        except ValueError:
            raise CliError("extends needs two integer degrees: extends M N")
        value = carpet_obstruction(alpha, m, n)
        out = {"answer": "yes" if value == 0 else "no"}
        out.update(_rational_or_poly(value))
        _emit(out)
        return 0 if out["answer"] == "yes" else 1
    if query == "lattice":
        if extras:
            raise CliError("lattice takes no extra arguments")
        if alpha == "symbolic":
            raise CliError("lattice needs a rational alpha")
        m, n = extension_lattice(alpha)
        _emit({"generator": [m, n]})
        return 0
    raise CliError(f"unknown carpet query {query!r}")


def _cmd_gamma(args) -> int:
    from .cohomology import BOUND_CAVEAT
    from .good_points import (
        FRAME_TAG,
        blowup_iso_decide,
        delta_invariant,
        standard_good_point,
    )

    point = standard_good_point(*_parse_coeff_pair(args.coeffs))
    if args.query == "delta":
        if args.other is not None:
            raise CliError("delta takes no second coefficient pair")
        tangent = delta_invariant(point)
        _emit(
            {
                "frame": FRAME_TAG,
                "tangent": [format_rational(c) for c in tangent],
            }
        )
        return 0
    # iso-with
    if args.other is None:
        raise CliError("iso-with needs a second coefficient pair")
    other = standard_good_point(*_parse_coeff_pair(args.other))
    from .p2_catalog import make_p2

    ambient = make_p2(args.m, nontrivial=(args.m == -3 and not args.trivial))
    answer = blowup_iso_decide(point, other, ambient, bound=args.bound)
    _emit(
        {
            "answer": "yes" if answer else "no",
            "bound": args.bound,
            "caveat": BOUND_CAVEAT,
        }
    )
    return 0 if answer else 1


def _lookup_cocycle(doc: AtlasDocument, name: str | None, flag: str):
    if name is None:
        raise CliError(f"this operation needs {flag}")
    if name not in doc.cocycles:
        known = ", ".join(sorted(doc.cocycles)) or "none"
        raise CliError(f"unknown cocycle {name!r} (document has: {known})")
    return doc.cocycles[name]


def _cmd_cohomology(args) -> int:
    from .cohomology import (
        bundle_cup,
        coboundary_solve,
        extension_obstruction,
        h2_residue,
    )

    doc = _load_document(args.document)
    _require_valid(doc, args.document)
    atlas = doc.atlas
    if args.op == "coboundary":
        witness, report = coboundary_solve(
            _require_double(doc, args.document), bound=args.bound
        )
        _emit(report)
        return 0 if witness is not None else 1
    if args.op == "obstruction":
        bundle = _lookup_cocycle(doc, args.bundle, "--bundle")
        value = extension_obstruction(_require_double(doc, args.document), bundle)
        _emit(_rational_or_poly(value))
        return 0
    # cup and residue pair two named bundle classes through the frames
    first = _lookup_cocycle(doc, args.bundle, "--bundle")
    second = _lookup_cocycle(doc, args.second, "--with")
    cup = bundle_cup(atlas, first, second)
    if args.op == "cup":
        _emit(
            {
                "triples": {
                    f"{i},{j},{k}": poly_to_json(entry)
                    for (i, j, k), entry in sorted(cup.data.items())
                }
            }
        )
        return 0
    _emit({"value": format_rational(Fraction(h2_residue(atlas, cup)))})
    return 0


# -- parser -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pms",
        description=(
            "Exact computer algebra for primitive multiple schemes: "
            "atlas validation, blow-ups, classification, and carpet queries."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check an atlas document")
    p.add_argument("atlas", help="atlas document (JSON)")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("blowup", help="blow up a double scheme along a center")
    p.add_argument("atlas", help="atlas document with double structure (JSON)")
    p.add_argument("--center", required=True, help="center description (JSON)")
    p.add_argument("--kind", required=True, choices=CENTER_KINDS)
    p.set_defaults(handler=_cmd_blowup)

    p = sub.add_parser(
        "classify-iso", help="decide isomorphism of two double schemes"
    )
    p.add_argument("first", help="atlas document with double structure (JSON)")
    p.add_argument("second", help="atlas document with double structure (JSON)")
    p.add_argument("--bound", type=int, default=6)
    p.set_defaults(handler=_cmd_classify_iso)

    p = sub.add_parser(
        "family", help="solve the pull-back family at fixed degrees"
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--ansatz-bound", type=int, default=6, dest="ansatz_bound")
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("carpet", help="queries about the ribbon at alpha")
    p.add_argument(
        "--alpha", required=True,
        help='rational "p/q" or "symbolic"; write a negative one as '
        '--alpha=-p/q',
    )
    p.add_argument(
        "--query",
        required=True,
        nargs="+",
        help="quasiprojective | decompose | extends M N | lattice",
    )
    p.add_argument("--bound", type=int, default=6)
    p.set_defaults(handler=_cmd_carpet)

    p = sub.add_parser("gamma", help="good-point invariants and comparisons")
    p.add_argument(
        "--coeffs", required=True,
        help='pair "a1,a2" of rationals; write a negative first one as '
        '--coeffs=-a1,a2',
    )
    p.add_argument("--query", required=True, choices=("delta", "iso-with"))
    p.add_argument("other", nargs="?", help='second pair "a1,a2" for iso-with')
    p.add_argument("--m", type=int, default=-3, help="ambient twist degree")
    p.add_argument(
        "--trivial",
        action="store_true",
        help="compare over the trivial double structure",
    )
    p.add_argument("--bound", type=int, default=6)
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("cohomology", help="cocycle-level computations")
    p.add_argument("document", help="atlas document (JSON)")
    p.add_argument(
        "--op",
        required=True,
        choices=("coboundary", "cup", "residue", "obstruction"),
    )
    p.add_argument("--bundle", help="cocycle name from the document")
    p.add_argument("--with", dest="second", help="second cocycle name")
    p.add_argument("--bound", type=int, default=6)
    p.set_defaults(handler=_cmd_cohomology)

    return parser


def _error(message: str) -> None:
    """Write one ``error:`` line, with non-printable characters escaped."""
    # a carriage return or escape sequence in a file name must not hide the
    # prefix or drive the terminal
    text = "".join(
        ch if ch.isprintable() else ch.encode("unicode_escape").decode("ascii")
        for ch in message
    )
    sys.stderr.write(f"error: {text}\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CliError, ValueError, RuntimeError) as exc:
        _error(str(exc))
        return 2
    except AssertionError as exc:
        # a re-verification inside the library failed: a bug, not a "no"
        _error(f"internal self-check failed: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
