"""The four benchmark workloads: seeded inputs, operations and exact checks.

Each workload hands out operations in rounds.  A round has a fixed mix of
operation kinds.  The inputs that set much of an operation's cost (the
epsilon heads of ``endo-calculus``, the family's p in ``cli-cold``) walk
through fixed cycles with the round index from a seeded start, so the cost mix
changes little with the number of rounds that fit in a run.  Every other
input is drawn from a generator seeded by the workload name, the run seed and
the round index.  The same seed therefore gives the same inputs, round by
round, in every process.

Operations reach the program only through module attributes looked up at call
time (``tr.classify_endo``, not a name imported once), so the traced run sees
the wrapped bindings.  Checks compare each answer with a value the theory
predicts or with an independent oracle path; they run outside the timed
interval, with tracing off, and after peak memory has been read.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from pms import atlas as at
from pms import blowup as bl
from pms import cohomology as co
from pms import good_points as gp
from pms import laurent_core as lc
from pms import p2_catalog as pc
from pms import truncated_ring as tr

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    """One timed operation with its generated inputs and its checker."""

    label: str
    inputs: str
    run: Callable[[], object]
    # None when the answer is right, else (kind, message) with kind "wrong"
    # for a wrong exact answer and "contract" for a broken CLI contract
    check: Callable[[object], tuple[str, str] | None]
    digest: Callable[[object], str]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def poly_key(p) -> str:
    return ";".join(f"{e}:{c}" for e, c in p.items())


def trunc_key(u) -> str:
    return "|".join(poly_key(c) for c in u.coeffs)


def morphism_key(theta) -> str:
    if theta is None:
        return "-"
    parts = [trunc_key(img) for img in theta.variable_images]
    return f"{theta.order}[{' / '.join(parts)} ; {trunc_key(theta.epsilon)}]"


def fmt(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


class Workload:
    name = ""
    round_size = 0
    # whole rounds a run always completes; fixes the tail percentile
    min_rounds = 1
    # rounds of the traced run (fixed work, so its counts repeat exactly)
    trace_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, index) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def warmup(self) -> list[Op]:
        """Operations run once during set-up, untimed."""
        return []

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError


# -- endo-calculus -------------------------------------------------------

ENDO_EXPECTED = {"unit": "iso", "zero": "non_injective", "reg": "injective_only"}


def _rand_term(rng: random.Random):
    """A random nonzero monomial with exponents in [-2, 2]^2.

    Single terms keep the cost of one operation steady across seeds; sums
    still appear wherever the calculus composes, inverts or conjugates.
    """
    exp = (rng.randint(-2, 2), rng.randint(-2, 2))
    return lc.LaurentPoly.monomial(2, exp, rng.choice([-3, -2, -1, 1, 2, 3]))


# Unit heads of epsilon.  The head's exponent (zero, on an axis, diagonal)
# and coefficient set much of the cost of an inverse, so rounds walk through
# both cycles from seeded starts instead of drawing at random: over a run
# every seed then gets nearly the same mix of cheap and expensive inverses.
UNIT_EXPONENTS = tuple((e0, e1) for e0 in (-1, 0, 1) for e1 in (-1, 0, 1))
UNIT_COEFFS = (1, 2, -1, 3)


def _rand_morphism(rng: random.Random, order: int, kind: str,
                   cycle_at: tuple[int, int]):
    images = []
    for v in range(2):
        coeffs = [lc.LaurentPoly.var(2, v)]
        coeffs += [_rand_term(rng) for _ in range(order - 1)]
        images.append(tr.TruncElement(order, tuple(coeffs)))
    if kind == "unit":
        head = lc.LaurentPoly.monomial(
            2, UNIT_EXPONENTS[cycle_at[0] % len(UNIT_EXPONENTS)],
            UNIT_COEFFS[cycle_at[1] % len(UNIT_COEFFS)],
        )
    elif kind == "zero":
        head = lc.LaurentPoly.zero(2)
    else:
        head = lc.LaurentPoly.const(2, 1) + lc.LaurentPoly.var(2, rng.randrange(2))
    eps = tr.TruncElement(
        order - 1, (head,) + tuple(_rand_term(rng) for _ in range(order - 2))
    )
    return tr.RingMorphism(order, tuple(images), eps)


class EndoCalculus(Workload):
    """Fresh filtered endomorphisms of orders 2-5 in two variables."""

    name = "endo-calculus"
    INVERSE_MAX_ORDER = 4  # order-5 inverses would swamp the run
    # every order and kind once, plus a second order-4 unit: the order-4
    # inverses make the tail, and twice the samples steady it
    MIX = tuple((order, kind) for order in (2, 3, 4, 5)
                for kind in ("unit", "zero", "reg")) + ((4, "unit"),)
    round_size = len(MIX)
    min_rounds = 17
    trace_rounds = 4

    def round(self, index):
        rng = self.rng(index)
        starts = self.rng("heads")
        exp0, coeff0 = starts.randrange(9), starts.randrange(4)
        ops = []
        for slot, (order, kind) in enumerate(self.MIX):
            cycle_at = (exp0 + 2 * index + slot, coeff0 + index + slot)
            theta = _rand_morphism(rng, order, kind, cycle_at)
            x = lc.LaurentPoly.monomial(
                2, (rng.randint(-2, 2), rng.randint(-2, 2)),
                Fraction(rng.choice([1, -1, 2]), rng.choice([1, 3])),
            )
            head = lc.LaurentPoly.monomial(
                2, (rng.randint(-1, 1), rng.randint(-1, 1)),
                rng.choice([1, -2, 3]),
            )
            alpha = tr.TruncElement(
                order - 1,
                (head,) + tuple(_rand_term(rng) for _ in range(order - 2)),
            )
            ops.append(self._op(order, kind, theta, x, alpha))
        rng.shuffle(ops)
        return ops

    def _op(self, order, kind, theta, x, alpha) -> Op:
        want_inverse = kind == "unit" and order <= self.INVERSE_MAX_ORDER

        def run():
            verdict = tr.classify_endo(theta)
            conj = tr.conjugate_chi(theta, x, alpha)
            inv = None
            if verdict == "iso" and order <= self.INVERSE_MAX_ORDER:
                inv = tr.endo_inverse(theta)
            return verdict, conj, inv

        def check(answer):
            verdict, conj, inv = answer
            if verdict != ENDO_EXPECTED[kind]:
                return "wrong", f"classify_endo gave {verdict}"
            if conj != tr.conjugate_chi_composed(theta, x, alpha):
                return "wrong", "conjugate_chi differs from the composed oracle"
            if want_inverse:
                ident = tr.identity_morphism(order, 2)
                if inv is None or tr.compose_endo(inv, theta) != ident:
                    return "wrong", "endo_inverse is not a left inverse"
            elif inv is not None:
                return "wrong", "inverse returned for a non-invertible morphism"
            return None

        def digest(answer):
            verdict, conj, inv = answer
            return sha(f"{verdict}\n{morphism_key(conj)}\n{morphism_key(inv)}")

        inputs = f"{morphism_key(theta)} x={poly_key(x)} alpha={trunc_key(alpha)}"
        return Op(f"order{order}/{kind}", inputs, run, check, digest)


# -- family-sweep --------------------------------------------------------

FAMILY_DIMS = {0: 2, 1: 1, 2: 0, 3: 0}
FAMILY_FREE = {0: ("c0", "R0"), 1: ("c0",), 2: (), 3: ()}


def family_relations(p: int, b: int) -> tuple[str, ...]:
    """Relations of the pulled-back family, stable across ansatz bounds."""
    rs = [f"R{k}" for k in range(1, b + 1)]
    ss = [f"S{k}" for k in range(b + 1)]
    if p == 0:
        return ("c0D = c0", "R1 = c0", "S0 = -R0",
                " = ".join(rs[1:] + ss[1:]) + " = 0")
    if p == 1:
        return ("R0 = c0", "c0D = c0", " = ".join(rs + ss) + " = 0")
    return (" = ".join(["c0", "R0", "c0D"] + rs + ss) + " = 0",)


def check_family_json(data: dict, p: int, b: int):
    if data.get("parameter_dim") != FAMILY_DIMS[p]:
        return "wrong", f"dimension {data.get('parameter_dim')} for p={p}"
    if tuple(data.get("free_parameters", ())) != FAMILY_FREE[p]:
        return "wrong", f"free parameters {data.get('free_parameters')}"
    if tuple(data.get("relations", ())) != family_relations(p, b):
        return "wrong", f"relations {data.get('relations')}"
    if data.get("ansatz_bound") != b or not data.get("caveat"):
        return "wrong", "bound or caveat missing from the report"
    return None


class FamilySweep(Workload):
    """solve_pullback_family(-3, p, b) over p in 0..3, b in 3..7, warm caches."""

    name = "family-sweep"
    PS = (0, 1, 2, 3)
    BOUNDS = (3, 4, 5, 6, 7)
    round_size = len(PS) * len(BOUNDS)
    # costs come in one group per bound with gaps between the pairs; five
    # samples of each pair keep the median and the p90 tail steady
    min_rounds = 5
    trace_rounds = 1

    def warmup(self):
        # the largest box covers every membership query of the smaller ones
        return [self._op(p, max(self.BOUNDS)) for p in self.PS]

    def round(self, index):
        ops = [self._op(p, b) for p in self.PS for b in self.BOUNDS]
        self.rng(index).shuffle(ops)
        return ops

    def _op(self, p, b) -> Op:
        def run():
            return pc.solve_pullback_family(-3, p, ansatz_bound=b).to_json()

        return Op(
            f"p{p}/b{b}", f"m=-3 p={p} ansatz_bound={b}", run,
            lambda data: check_family_json(data, p, b),
            lambda data: sha(json.dumps(data, sort_keys=True)),
        )


# -- cocycle-search ------------------------------------------------------

U = lc.LaurentPoly.monomial(2, (0, 1))
V = lc.LaurentPoly.monomial(2, (1, 1))
RENAME = {
    "U0/D+(1)": "W0",
    "U1/D+(1)": "W1",
    "U2/D+(mu)": "W2",
    "U2/D+(lam*mu)": "W3",
}
ALPHAS = tuple(Fraction(a) for a in (
    "1", "2", "-1", "1/2", "-2", "3/2", "1/3", "-3/4", "3", "2/5",
))
COEFFS = tuple(Fraction(n, 2) for n in range(-4, 5))
REDUCED_BASES = ((-3, True), (-3, False), (-1, False), (0, False), (2, False))


def point_center():
    return bl.CenterSpec("reduced", generators={"U2": (U, V)})


def line_center():
    one = lc.LaurentPoly.const(2, 1)
    return bl.CenterSpec("hypersurface", generators={
        "U0": (lc.LaurentPoly.monomial(2, (-1, 0)),),
        "U1": (one,),
        "U2": (U,),
    })


def exceptional_line_center():
    one = lc.LaurentPoly.const(2, 1)
    return bl.CenterSpec("hypersurface", generators={
        "W0": (one,), "W1": (one,), "W2": (U,), "W3": (V,),
    })


def good_center(a1, a2):
    const = lc.LaurentPoly.const
    return bl.CenterSpec(
        "good", pairs={"U2": ((U, const(2, a1)), (V, const(2, a2)))}
    )


def _two_points(rng):
    first = (rng.choice(COEFFS), rng.choice(COEFFS))
    second = first
    while second == first:
        second = (rng.choice(COEFFS), rng.choice(COEFFS))
    return first, second


def _two_alphas(rng):
    a = rng.choice(ALPHAS)
    b = rng.choice([x for x in ALPHAS if x != a])
    return a, b


def _expect_report(status, bound, tau=None):
    def check(answer):
        witness, report = answer
        if report.get("status") != status:
            return "wrong", f"status {report.get('status')}, expected {status}"
        if report.get("bound") != bound or not report.get("caveat"):
            return "wrong", "bound or caveat missing from the report"
        if status == "found" and (witness is None or not report.get("witness")):
            return "wrong", "found without a witness"
        if status != "found" and witness is not None:
            return "wrong", "witness returned with a negative status"
        if tau is not None and report["witness"].get("tau") != fmt(tau):
            return "wrong", f"tau {report['witness'].get('tau')}, expected {fmt(tau)}"
        return None

    return check


def _expect_bool(value):
    def check(answer):
        if answer is not value:
            return "wrong", f"answer {answer!r}, expected {value!r}"
        return None

    return check


class CocycleSearch(Workload):
    """Bounded coboundary and isomorphism searches, about half found."""

    name = "cocycle-search"
    BOUNDS = (3, 4, 5, 6, 7, 8)
    KINDS = (
        # expected found
        "iso/trivial-carpets",
        "iso/reduced-blowup-vs-normal-form",
        "iso/good-blowup-vs-normal-form",
        "iso/hypersurface-carpet-vs-rigid",
        "coboundary/hypersurface-blowup",
        "successive-identity",
        # expected none within bound
        "iso/distinct-carpets",
        "iso/distinct-good-points",
        "coboundary/carpet",
        "coboundary/plane",
        "blowup-iso-decide/distinct-points",
    )
    round_size = len(KINDS) * len(BOUNDS)
    min_rounds = 2
    trace_rounds = 1

    def warmup(self):
        rng = self.rng("warmup")
        return [self._op(kind, min(self.BOUNDS), rng) for kind in self.KINDS]

    def round(self, index):
        rng = self.rng(index)
        ops = [
            self._op(kind, bound, rng)
            for kind in self.KINDS for bound in self.BOUNDS
        ]
        rng.shuffle(ops)
        return ops

    def _op(self, kind, bound, rng) -> Op:
        def base():
            return pc.make_p2(-3, nontrivial=True)

        found = _expect_report("found", bound)
        found_tau1 = _expect_report("found", bound, tau=1)
        none = _expect_report("none_within_bound", bound)
        if kind == "iso/trivial-carpets":
            a, b = rng.choice(ALPHAS), rng.choice(ALPHAS)
            inputs, check = f"alphas {a} {b}", _expect_report("found", bound, tau=b / a)

            def run():
                return co.iso_decide(pc.build_carpet(a, trivial=True),
                                     pc.build_carpet(b, trivial=True), bound=bound)
        elif kind == "iso/reduced-blowup-vs-normal-form":
            m, nontrivial = rng.choice(REDUCED_BASES)
            inputs, check = f"m={m} nontrivial={nontrivial}", found_tau1

            def run():
                blown = bl.blowup_reduced(pc.make_p2(m, nontrivial=nontrivial),
                                          point_center(), rename=RENAME)
                normal = pc.make_blown_plane(m, 1, 0, nontrivial=nontrivial)
                return co.iso_decide(blown.spec, normal, bound=bound)
        elif kind == "iso/good-blowup-vs-normal-form":
            a1, a2 = rng.choice(COEFFS), rng.choice(COEFFS)
            inputs, check = f"point {a1},{a2}", found_tau1

            def run():
                blown = bl.blowup_good(base(), good_center(a1, a2), rename=RENAME)
                normal = pc.make_blown_plane(-3, 0, a1, -a2, nontrivial=True)
                return co.iso_decide(blown.spec, normal, bound=bound)
        elif kind == "iso/hypersurface-carpet-vs-rigid":
            a = rng.choice(ALPHAS)
            inputs, check = f"alpha {a}", found_tau1

            def run():
                blown = bl.blowup_hypersurface(pc.build_carpet(a),
                                               exceptional_line_center())
                rigid = pc.make_blown_plane(-3, 2, nontrivial=True)
                return co.iso_decide(blown.spec, rigid, bound=bound)
        elif kind == "coboundary/hypersurface-blowup":
            inputs, check = "line x0 = 0", found

            def run():
                blown = bl.blowup_hypersurface(base(), line_center())
                return co.coboundary_solve(blown.spec, bound=bound)
        elif kind == "successive-identity":
            a1, a2 = rng.choice(COEFFS), rng.choice(COEFFS)
            inputs, check = f"point {a1},{a2}", _expect_bool(True)

            def run():
                return bl.successive_identity_check(base(), good_center(a1, a2),
                                                    bound=bound)
        elif kind == "iso/distinct-carpets":
            a, b = _two_alphas(rng)
            inputs, check = f"alphas {a} {b}", none

            def run():
                return co.iso_decide(pc.build_carpet(a), pc.build_carpet(b),
                                     bound=bound)
        elif kind == "iso/distinct-good-points":
            first, second = _two_points(rng)
            inputs, check = f"points {first} {second}", none

            def run():
                spec = base()
                one = bl.blowup_good(spec, good_center(*first), check=False)
                two = bl.blowup_good(spec, good_center(*second), check=False)
                return co.iso_decide(one.spec, two.spec, bound=bound)
        elif kind == "coboundary/carpet":
            a = rng.choice(ALPHAS)
            inputs, check = f"alpha {a}", none

            def run():
                return co.coboundary_solve(pc.build_carpet(a), bound=bound)
        elif kind == "coboundary/plane":
            inputs, check = "nontrivial plane, m=-3", none

            def run():
                return co.coboundary_solve(base(), bound=bound)
        else:  # blowup-iso-decide/distinct-points
            first, second = _two_points(rng)
            inputs, check = f"points {first} {second}", _expect_bool(False)

            def run():
                return gp.blowup_iso_decide(gp.standard_good_point(*first),
                                            gp.standard_good_point(*second),
                                            base(), bound=bound)

        def digest(answer):
            if isinstance(answer, bool):
                return sha(repr(answer))
            return sha(json.dumps(answer[1], sort_keys=True))

        return Op(f"{kind}/b{bound}", f"{inputs} bound={bound}", run, check,
                  digest)


# -- cli-cold ------------------------------------------------------------

EXIT_CODES = (0, 1, 2)


def cli_contract(answer) -> tuple[str, str] | None:
    """The CLI contract: documented exit code, JSON or error line, no traceback."""
    code, out, err = answer
    if "Traceback (most recent call last)" in err:
        last = err.strip().splitlines()[-1] if err.strip() else ""
        return "contract", f"traceback, exit {code}: {last[:160]}"
    if code not in EXIT_CODES:
        return "contract", f"undocumented exit code {code}"
    if out == "valid\n":
        return None
    if out:
        try:
            json.loads(out)
        except ValueError:
            return "contract", "stdout is not JSON"
        return None
    if not any("error:" in line for line in err.splitlines()):
        return "contract", "neither JSON output nor an error: line"
    return None


def _cli_expect(code: int, payload=None, test=None):
    """Check the contract, the exit code, then the exact output or a test."""

    def check(answer):
        bad = cli_contract(answer)
        if bad:
            return bad
        got, out, _ = answer
        if got != code:
            return "wrong", f"exit {got}, expected {code}"
        if isinstance(payload, str) and out != payload:
            return "wrong", f"output {out[:160]!r}"
        if isinstance(payload, dict) and json.loads(out) != payload:
            return "wrong", f"output {out[:160]!r}"
        problem = test(out) if test is not None else None
        return ("wrong", problem) if problem else None

    return check


def _doc_check(charts, alpha_table=None):
    def test(out):
        doc = at.loads_document(out)
        if list(doc.atlas.chart_names()) != charts:
            return f"charts {doc.atlas.chart_names()}"
        if not at.validate_double_scheme(doc.double).ok:
            return "blown-up document does not validate"
        if alpha_table is not None:
            data = {
                (RENAME.get(i, i), RENAME.get(j, j)): v
                for (i, j), v in doc.double.alpha.data.items()
            }
            if data != dict(alpha_table.data):
                return "bundle cocycle differs from the expected table"
        return None

    return test


def _status_test(status, tau=None):
    def test(out):
        report = json.loads(out)
        if report.get("status") != status or not report.get("caveat"):
            return f"status {report.get('status')}"
        if tau is not None and report["witness"]["tau"] != fmt(tau):
            return f"tau {report['witness']['tau']}"
        return None

    return test


def _fields(expected: dict):
    """A test that the JSON output contains ``expected`` (nested subset)."""

    def contains(got, want) -> bool:
        if isinstance(want, dict):
            return isinstance(got, dict) and all(
                k in got and contains(got[k], v) for k, v in want.items())
        return got == want

    def test(out):
        got = json.loads(out)
        return None if contains(got, expected) else f"output {out[:160]!r}"

    return test


def _family_problem(out: str, p: int) -> str | None:
    bad = check_family_json(json.loads(out), p, 6)
    return bad[1] if bad else None


def _write_doc(path: Path, spec, extra=()) -> None:
    cocycles = {spec.alpha.name: spec.alpha}
    for c in extra:
        cocycles[c.name] = c
    path.write_text(at.dumps_document(at.AtlasDocument(spec.atlas, cocycles, spec)))


class CliCold(Workload):
    """One fresh pms process per operation, on generated documents and centers."""

    name = "cli-cold"
    round_size = 21
    min_rounds = 2
    trace_rounds = 1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.traced = False
        self.trace_dir: Path | None = None
        self.op_id = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.workdir.mkdir(parents=True, exist_ok=True)
        _write_doc(self.workdir / "plane.json", pc.make_p2(-3, nontrivial=True))
        (self.workdir / "point.json").write_text(
            json.dumps(bl.center_to_json(point_center())))
        (self.workdir / "line.json").write_text(
            json.dumps(bl.center_to_json(line_center())))

    def _command(self, argv):
        if not self.traced:
            return [sys.executable, "-m", "pms.cli", *argv]
        out = self.trace_dir / f"op-{self.op_id}"
        return [sys.executable, str(HERE / "cli_worker.py"), "--out", str(out),
                "--op", str(self.op_id), "--", *argv]

    def _op(self, label, argv, check) -> Op:
        def run():
            proc = subprocess.run(
                self._command(argv), cwd=self.workdir, env=self.env,
                capture_output=True, text=True, timeout=120,
            )
            return proc.returncode, proc.stdout, proc.stderr

        def digest(answer):
            code, out, err = answer
            return sha(f"{code}\n{out}\n{'Traceback' in err}")

        return Op(label, " ".join(argv), run, check, digest)

    def round(self, index):
        rng = self.rng(index)
        # the family's p sets much of a round's cost (0.9-1.7 s cold), so
        # rounds walk through PS from a seeded start instead of drawing it
        p = FamilySweep.PS[(self.rng("family").randrange(4) + index) % 4]
        wd = self.workdir
        alpha = rng.choice(ALPHAS)
        triv_a, triv_b = rng.choice(ALPHAS), rng.choice(ALPHAS)
        a1, a2 = rng.choice(COEFFS), rng.choice(COEFFS)
        u_cls, v_cls = pc.wcover_unit_classes()
        _write_doc(wd / "carpet.json", pc.build_carpet(alpha), (u_cls, v_cls))
        _write_doc(wd / "triv-a.json", pc.build_carpet(triv_a, trivial=True))
        _write_doc(wd / "triv-b.json", pc.build_carpet(triv_b, trivial=True))
        (wd / "good.json").write_text(
            json.dumps(bl.center_to_json(good_center(a1, a2))))
        # the documents are part of the inputs: hash them into the labels
        files = {
            name: sha((wd / name).read_text())[:16]
            for name in ("carpet.json", "triv-a.json", "triv-b.json", "good.json")
        }

        blown = ["U0/D+(1)", "U1/D+(1)", "U2/D+(mu)", "U2/D+(lam*mu)"]
        ops = [
            self._op("validate", ["validate", rng.choice(["plane.json", "carpet.json"])],
                     _cli_expect(0, "valid\n")),
            self._op("blowup/reduced",
                     ["blowup", "plane.json", "--center", "point.json", "--kind", "reduced"],
                     _cli_expect(0, test=_doc_check(blown, pc.beta_table(-3, 1)))),
            self._op("blowup/good",
                     ["blowup", "plane.json", "--center", "good.json", "--kind", "good"],
                     _cli_expect(0, test=_doc_check(blown, pc.beta_table(-3, 0)))),
            self._op("blowup/hypersurface",
                     ["blowup", "plane.json", "--center", "line.json", "--kind",
                      "hypersurface"],
                     _cli_expect(0, test=_doc_check(["U0", "U1", "U2"]))),
            self._op("classify-iso",
                     ["classify-iso", "triv-a.json", "triv-b.json", "--bound", "6"],
                     _cli_expect(0, test=_status_test("found", triv_b / triv_a))),
        ]
        ops.append(self._op(
            "family", ["family", "--m", "-3", "--p", str(p), "--ansatz-bound", "6"],
            _cli_expect(0, test=lambda out: _family_problem(out, p)),
        ))
        ops += self._carpet_ops(rng, alpha)
        ops += self._gamma_ops(rng)
        ops += self._cohomology_ops(rng, alpha, u_cls.name, v_cls.name)
        # out of the documented domain: must end in a documented way
        for argv in (["family", "--m", "-2", "--p", "0"],
                     ["family", "--m", "-3", "--p", "0", "--ansatz-bound", "0"],
                     ["family", "--m", "-3", "--p", "0", "--ansatz-bound", "2"]):
            ops.append(self._op("out-of-domain/" + " ".join(argv[1:]), argv,
                                cli_contract))
        assert len(ops) == self.round_size
        rng.shuffle(ops)
        for op in ops:
            op.inputs += " " + " ".join(
                f"{n}={h}" for n, h in files.items() if n in op.inputs)
        return ops

    def _carpet_ops(self, rng, alpha):
        a = fmt(alpha)
        if alpha > 0:
            qp = _cli_expect(0, {"answer": "yes",
                                 "witness": [alpha.numerator, alpha.denominator]})
        else:
            qp = _cli_expect(1, test=_fields({"answer": "no", "evidence": {
                "obstruction_at_1_0": "1/1",
                "obstruction_at_0_1": fmt(-alpha)}}))
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
        value = m - n * alpha
        lattice = [0, 1] if alpha == 0 else [alpha.numerator, alpha.denominator]

        return [
            self._op("carpet/quasiprojective",
                     ["carpet", f"--alpha={a}", "--query", "quasiprojective"], qp),
            self._op("carpet/decompose",
                     ["carpet", f"--alpha={a}", "--query", "decompose"],
                     _cli_expect(0, test=_fields({"coefficients": ["1/1", a],
                                                  "report": {"status": "found"}}))),
            self._op("carpet/extends",
                     ["carpet", f"--alpha={a}", "--query", "extends", str(m), str(n)],
                     _cli_expect(0 if value == 0 else 1,
                                 {"answer": "yes" if value == 0 else "no",
                                  "value": fmt(value)})),
            self._op("carpet/lattice", ["carpet", f"--alpha={a}", "--query", "lattice"],
                     _cli_expect(0, {"generator": lattice})),
            self._op("carpet/symbolic",
                     ["carpet", "--alpha", "symbolic", "--query", "quasiprojective"],
                     _cli_expect(1, test=_fields({"answer": "no", "evidence": {
                         "obstruction_at_1_0": "1/1",
                         "obstruction_at_0_1": "-al"}}))),
        ]

    def _gamma_ops(self, rng):
        first, second = _two_points(rng)
        while first == (0, 0):
            first, second = _two_points(rng)
        k = rng.choice([c for c in COEFFS if c])
        scaled = (k * first[0], k * first[1])
        def pair(pt):
            return f"{fmt(pt[0])},{fmt(pt[1])}"

        return [
            self._op("gamma/delta", ["gamma", f"--coeffs={pair(first)}", "--query", "delta"],
                     _cli_expect(0, {"frame": gp.FRAME_TAG,
                                     "tangent": [fmt(first[0]), fmt(first[1])]})),
            self._op("gamma/iso-with",
                     ["gamma", f"--coeffs={pair(first)}", "--query", "iso-with",
                      "--", pair(second)],
                     _cli_expect(1, test=_fields({"answer": "no"}))),
            self._op("gamma/iso-with-trivial",
                     ["gamma", f"--coeffs={pair(first)}", "--query", "iso-with",
                      "--trivial", "--", pair(scaled)],
                     _cli_expect(0, test=_fields({"answer": "yes"}))),
        ]

    def _cohomology_ops(self, rng, alpha, u, v):
        first, second = rng.choice([(u, u), (u, v), (v, u), (v, v)])
        residue = {(u, u): 1, (u, v): 0, (v, u): 0, (v, v): -1}[(first, second)]
        bundle = rng.choice([u, v])
        obstruction = 1 if bundle == u else -alpha

        def cup(out):
            triples = sorted(json.loads(out)["triples"])
            if triples != ["W0,W1,W2", "W0,W1,W3", "W0,W2,W3", "W1,W2,W3"]:
                return f"cup triples {triples}"
            return None

        return [
            self._op("cohomology/coboundary",
                     ["cohomology", "carpet.json", "--op", "coboundary"],
                     _cli_expect(1, test=_status_test("none_within_bound"))),
            self._op("cohomology/cup",
                     ["cohomology", "carpet.json", "--op", "cup", "--bundle", u,
                      "--with", v],
                     _cli_expect(0, test=cup)),
            self._op("cohomology/residue",
                     ["cohomology", "carpet.json", "--op", "residue", "--bundle",
                      first, "--with", second],
                     _cli_expect(0, {"value": fmt(residue)})),
            self._op("cohomology/obstruction",
                     ["cohomology", "carpet.json", "--op", "obstruction",
                      "--bundle", bundle],
                     _cli_expect(0, {"value": fmt(obstruction)})),
        ]


WORKLOADS = {
    cls.name: cls for cls in (EndoCalculus, FamilySweep, CocycleSearch, CliCold)
}
