"""Acceptance suite: ten end-to-end checks with stated time budgets.

Every check uses exact rational arithmetic (zero tolerance).  Bounded
searches declare their caveat in every report they produce; each criterion
emits a single pass/fail line with its elapsed time.
"""

from __future__ import annotations

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from pms.atlas import (
    canonical_spanning_pairs,
    validate_double_scheme,
    validate_mult_cocycle,
)
from pms.blowup import (
    CenterSpec,
    blowup_good,
    blowup_hypersurface,
    blowup_reduced,
    successive_identity_check,
)
from pms.cohomology import (
    TwoCocycle,
    canonical_class,
    coboundary_solve,
    contract_cup,
    flat,
    h2_residue,
    iso_decide,
    oneform_coboundary_solve,
    sharp,
)
from pms.good_points import (
    blowup_iso_decide,
    h_lp,
    sections_TL,
    standard_good_point,
)
from pms.laurent_core import LaurentPoly
from pms.linear import rank_of_vectors
from pms.p2_catalog import (
    beta_table,
    build_carpet,
    carpet_decompose,
    carpet_obstruction,
    make_blown_plane,
    make_p2,
    make_p2_atlas,
    make_wcover_atlas,
    p2_line_bundle,
    pairing_matrix,
    quasiprojective,
    solve_pullback_family,
    wcover_unit_classes,
)
from pms.truncated_ring import (
    RingMorphism,
    TruncElement,
    classify_endo,
    conjugate_chi,
    conjugate_chi_composed,
)

from oracles import is_good_principal

mono = LaurentPoly.monomial
const = LaurentPoly.const
zero2 = LaurentPoly.zero(2)


def _announce(capsys, line: str) -> None:
    if capsys is None:
        sys.stdout.write(line + "\n")
        return
    with capsys.disabled():
        sys.stdout.write("\n" + line + " ")
        sys.stdout.flush()


@contextmanager
def criterion(num: int, label: str, limit: float, capsys=None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < limit, (
            f"criterion {num} exceeded its {limit}s budget ({elapsed:.2f}s)"
        )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        _announce(
            capsys,
            f"criterion {num:2d} [{label}]: {status} "
            f"({elapsed:.2f}s, limit {limit:.0f}s)",
        )


# -- shared fixtures -----------------------------------------------------

U = mono(2, (0, 1))
V = mono(2, (1, 1))
RENAME = {
    "U0/D+(1)": "W0",
    "U1/D+(1)": "W1",
    "U2/D+(mu)": "W2",
    "U2/D+(lam*mu)": "W3",
}
P_CENTER = CenterSpec("reduced", generators={"U2": (U, V)})
LINE_X0 = CenterSpec(
    "hypersurface",
    generators={
        "U0": (mono(2, (-1, 0)),),
        "U1": (const(2, 1),),
        "U2": (mono(2, (0, 1)),),
    },
)
PTILDE = CenterSpec(
    "hypersurface",
    generators={
        "W0": (const(2, 1),),
        "W1": (const(2, 1),),
        "W2": (U,),
        "W3": (V,),
    },
)


def good_center(a1, a2) -> CenterSpec:
    return CenterSpec(
        "good",
        pairs={"U2": ((U, const(2, Fraction(a1))), (V, const(2, Fraction(a2))))},
    )


def random_poly(rng: random.Random, span: int = 2, terms: int = 3) -> LaurentPoly:
    out = LaurentPoly.zero(2)
    for _ in range(rng.randrange(terms + 1)):
        exp = (rng.randint(-span, span), rng.randint(-span, span))
        out = out + mono(2, exp, Fraction(rng.randint(-3, 3)))
    return out


def random_morphism(rng: random.Random, order: int, eps_kind: str) -> RingMorphism:
    images = []
    for v in range(2):
        coeffs = [LaurentPoly.var(2, v)]
        coeffs += [random_poly(rng) for _ in range(order - 1)]
        images.append(TruncElement(order, tuple(coeffs)))
    if eps_kind == "unit":
        head = mono(
            2, (rng.randint(-1, 1), rng.randint(-1, 1)),
            Fraction(rng.choice([1, 2, -1, 3])),
        )
    elif eps_kind == "zero":
        head = zero2
    else:
        head = const(2, 1) + LaurentPoly.var(2, rng.randrange(2))
    eps = TruncElement(
        order - 1, (head,) + tuple(random_poly(rng) for _ in range(order - 2))
    )
    return RingMorphism(order, tuple(images), eps)


# -- the criteria --------------------------------------------------------


def test_criterion_01_cocycle_validation(capsys):
    with criterion(1, "cocycle validation", 2.0, capsys):
        for atlas in (make_p2_atlas(), make_wcover_atlas()):
            assert atlas.structure_failures() == []
        p2 = make_p2_atlas()
        w = make_wcover_atlas()
        for m in range(-3, 4):
            assert validate_mult_cocycle(p2, p2_line_bundle(m)).ok
            for p in (0, 1, 2):
                assert validate_mult_cocycle(w, beta_table(m, p)).ok
        for m in range(-3, 4):
            assert validate_double_scheme(make_p2(m)).ok
        assert validate_double_scheme(make_p2(-3, nontrivial=True)).ok
        for p in (0, 1, 2):
            assert validate_double_scheme(make_blown_plane(-3, p)).ok
        assert validate_double_scheme(build_carpet(Fraction(1, 2))).ok


def test_criterion_02_truncated_ring_laws(capsys):
    with criterion(2, "truncated-ring laws", 5.0, capsys):
        rng = random.Random(90210)
        for _ in range(200):
            order = rng.randint(2, 5)
            kind = rng.choice(["unit", "zero", "reg"])
            theta = random_morphism(rng, order, kind)
            verdict = classify_endo(theta)
            eps0 = theta.epsilon.coeffs[0]
            if eps0.is_zero():
                assert verdict == "non_injective"
            elif eps0.as_monomial() is not None:
                assert verdict == "iso"
            else:
                assert verdict == "injective_only"
        for _ in range(200):
            order = rng.randint(2, 5)
            theta = random_morphism(
                rng, order, rng.choice(["unit", "zero", "reg"])
            )
            x = mono(
                2, (rng.randint(-2, 2), rng.randint(-2, 2)),
                Fraction(rng.choice([1, -1, 2]), rng.choice([1, 3])),
            )
            head = mono(
                2, (rng.randint(-1, 1), rng.randint(-1, 1)),
                Fraction(rng.choice([1, -2, 3])),
            )
            alpha = TruncElement(
                order - 1,
                (head,) + tuple(random_poly(rng) for _ in range(order - 2)),
            )
            assert conjugate_chi(theta, x, alpha) == conjugate_chi_composed(
                theta, x, alpha
            )


def test_criterion_03_pairing_values(capsys):
    with criterion(3, "pairing values", 10.0, capsys):
        assert pairing_matrix() == (
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(-1)),
        )
        plane = make_p2_atlas()
        form = canonical_class(plane, p2_line_bundle(1))
        cup = contract_cup(plane, sharp(plane, form), form)
        assert h2_residue(plane, cup) == Fraction(1)
        atlas = make_wcover_atlas()
        names = atlas.chart_names()
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        rng = random.Random(90310)
        for _ in range(200):
            h = {}
            for (a, b) in pairs:
                ring = atlas.overlap(a, b)
                total = LaurentPoly.zero(2)
                for _ in range(3):
                    exp = [0, 0]
                    for g in ring.generators:
                        k = rng.randint(0, 2)
                        exp[0] += k * g[0]
                        exp[1] += k * g[1]
                    total = total + mono(2, tuple(exp), rng.randint(-2, 2))
                h[(a, b)] = atlas.frame(a) * total
            data = {}
            for x, i in enumerate(names):
                for y in range(x + 1, len(names)):
                    for z in range(y + 1, len(names)):
                        j, k = names[y], names[z]
                        data[(i, j, k)] = h[(j, k)] - h[(i, k)] + h[(i, j)]
            assert h2_residue(atlas, TwoCocycle(data)) == 0


def test_criterion_04_carpet_decomposition(capsys):
    with criterion(4, "carpet decomposition", 30.0, capsys):
        u_cls, v_cls = wcover_unit_classes()
        for alpha in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2)):
            pair, report = carpet_decompose(alpha, bound=6)
            assert pair == (Fraction(1), alpha)
            assert report["status"] == "found"
            assert report["caveat"]
            # independent witness verification: the residual one-form is an
            # exact difference of the solved chart cochain
            spec = build_carpet(alpha)
            atlas = spec.atlas
            sigma = flat(atlas, spec)
            extra = {
                "u": canonical_class(atlas, u_cls),
                "v": canonical_class(atlas, v_cls),
            }
            solution, _ = oneform_coboundary_solve(
                atlas, sigma, bound=6, extra=extra
            )
            assert solution is not None
            coeffs = solution["coefficients"]
            assert (coeffs["u"], coeffs["v"]) == (Fraction(1), alpha)
            rho = solution["cochain"]
            for (i, j) in canonical_spanning_pairs(atlas):
                for v in range(2):
                    residual = (
                        sigma.data[(i, j)][v]
                        - extra["u"].data[(i, j)][v].scale(coeffs["u"])
                        - extra["v"].data[(i, j)][v].scale(coeffs["v"])
                    )
                    assert residual == rho[i][v] - rho[j][v]


def test_criterion_05_extension_criterion(capsys):
    with criterion(5, "extension criterion", 10.0, capsys):
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(2)):
            for m in range(-3, 4):
                for n in range(-3, 4):
                    assert carpet_obstruction(alpha, m, n) == m - n * alpha
        assert quasiprojective(Fraction(3, 4)) == {
            "answer": "yes",
            "witness": [3, 4],
        }
        assert quasiprojective(Fraction(-1))["answer"] == "no"
        assert quasiprojective("symbolic")["answer"] == "no"


def test_criterion_06_classification_dimensions(capsys):
    with criterion(6, "classification dimensions", 60.0, capsys):
        dims = {0: 2, 1: 1, 2: 0}
        for p, dim in dims.items():
            low = solve_pullback_family(-3, p, ansatz_bound=4)
            high = solve_pullback_family(-3, p, ansatz_bound=8)
            assert low.parameter_dim == high.parameter_dim == dim
            assert low.free_parameters == high.free_parameters
            assert low.to_json()["caveat"] and high.to_json()["caveat"]
            if p == 0:
                for fam in (low, high):
                    assert "S0 = -R0" in fam.relations
            if p == 1:
                for fam in (low, high):
                    assert "R0 = c0" in fam.relations
                    assert any(
                        "S0" in r and r.endswith("= 0") for r in fam.relations
                    )


def test_criterion_07_blowup_identities(capsys):
    with criterion(7, "blow-up identities", 60.0, capsys):
        base = make_p2(-3, nontrivial=True)

        reduced = blowup_reduced(base, P_CENTER, rename=RENAME)
        target = make_blown_plane(-3, 1, Fraction(0), nontrivial=True)
        witness, report = iso_decide(reduced.spec, target, bound=4)
        assert witness is not None and witness[0] == 1
        assert report["witness"]["tau"] == "1/1"

        for a1, a2 in ((1, 0), (2, 3)):
            good = blowup_good(base, good_center(a1, a2), rename=RENAME)
            normal = make_blown_plane(
                -3, 0, Fraction(a1), Fraction(-a2), nontrivial=True
            )
            witness, report = iso_decide(good.spec, normal, bound=4)
            assert witness is not None and witness[0] == 1
            assert report["caveat"]

        twisted = blowup_hypersurface(base, LINE_X0)
        cob, report = coboundary_solve(twisted.spec, bound=4)
        assert cob is not None
        assert report["status"] == "found"

        assert dict(reduced.spec.alpha.data) == dict(beta_table(-3, 1).data)
        assert dict(reduced.pullback.data) == dict(beta_table(-3, 0).data)
        assert dict(reduced.exceptional.data) == dict(beta_table(0, 1).data)


def test_criterion_08_good_point_theory(capsys):
    with criterion(8, "good-point theory", 30.0, capsys):
        rng = random.Random(90810)
        samples = [(1, 0), (0, 1), (2, 3), (1, 1), (-1, 2)]
        while len(samples) < 10:
            cand = (rng.randint(-3, 3), rng.randint(-3, 3))
            if cand not in samples:
                samples.append(cand)

        nontrivial = make_p2(-3, nontrivial=True)
        trivial_full = make_p2(0)
        for idx in range(0, len(samples) - 1):
            pa, pb = samples[idx], samples[idx + 1]
            for spec in (nontrivial, trivial_full):
                b1 = blowup_good(spec, good_center(*pa), check=False).spec
                b2 = blowup_good(spec, good_center(*pb), check=False).spec
                witness, report = iso_decide(b1, b2, bound=3)
                direct = blowup_iso_decide(
                    standard_good_point(*pa), standard_good_point(*pb),
                    spec, bound=3,
                )
                assert (witness is not None) == direct
                assert report["caveat"]
                if spec is nontrivial:
                    assert direct is False  # distinct points stay distinct
                else:
                    assert direct is True  # full evaluation space at m = 0

        # evaluation-space dimensions against the graded-component oracle
        for m, expected in ((-3, 0), (-2, 0), (-1, 2)):
            basis = h_lp(m)
            assert len(basis) == expected
            # oracle: rank of the evaluation of every monomial section triple
            target = (0, 0, m + 1)
            degree = m + 1
            evaluations = []
            for slot in (0, 1):
                if degree >= 0:
                    evaluations.append({slot: Fraction(1)})
            assert rank_of_vectors(evaluations) == expected
            # the quotient presentation agrees in dimension
            total = 3 * (m + 3) * (m + 2) // 2 - (m + 2) * (m + 1) // 2
            assert len(sections_TL(m)) == max(total, 0)

        # principal-ideal negative case: order-two vanishing is not good
        y = mono(1, (1,))
        assert not is_good_principal(y.power(2), const(1, 1))
        assert is_good_principal(y, const(1, 1))


def test_criterion_09_successive_blowups(capsys):
    with criterion(9, "successive blow-ups", 60.0, capsys):
        base = make_p2(-3, nontrivial=True)
        for a1, a2 in ((0, 0), (1, 0), (0, 1)):
            assert successive_identity_check(base, good_center(a1, a2), bound=4)
        assert successive_identity_check(make_p2(-3), good_center(0, 0), bound=4)

        rigid = make_blown_plane(-3, 2, nontrivial=True)
        for alpha in (Fraction(1, 2), Fraction(-2)):
            res = blowup_hypersurface(build_carpet(alpha), PTILDE)
            assert dict(res.spec.alpha.data) == dict(beta_table(-3, 2).data)
            witness, report = iso_decide(res.spec, rigid, bound=5)
            assert witness is not None
            assert report["caveat"]


def test_criterion_10_carpet_distinctness(capsys):
    with criterion(10, "carpet distinctness", 60.0, capsys):
        alphas = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1))
        carpets = {a: build_carpet(a) for a in alphas}
        for i, a in enumerate(alphas):
            for b in alphas[i + 1:]:
                witness, report = iso_decide(carpets[a], carpets[b], bound=8)
                assert witness is None
                assert report["status"] == "none_within_bound"
                assert report["bound"] == 8
                assert report["caveat"]
        one = build_carpet(Fraction(1), trivial=True)
        two = build_carpet(Fraction(2), trivial=True)
        witness, report = iso_decide(one, two, bound=8)
        assert witness is not None
        assert witness[0] == 2
        assert report["witness"]["tau"] == "2/1"
