"""The three workloads: set-up, seeded inputs, the ops of one batch and the
check of every answer.

A workload is ``setup(qt)``, which builds the algebras and structure maps
every invocation of the CLI pays for, and ``ops(qt, seed)``, which returns
the batch as ``(kind, run, check)`` triples: ``run()`` performs one op
through the public API and returns its answer; ``check(answer)`` returns
None when the answer is right and a message otherwise.  Checks run after
the clock stops, since they recompute answers through the library.

Every input comes from ``random.Random`` seeded by the benchmark seed and
from ``qtriangular.random_element``; nothing is read from the test suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: the seed whose per-query CLI output digests are recorded in DIGEST_FILE
DEFAULT_SEED = 0
DIGEST_FILE = HERE / "cli_session.seed0.digest"


def _setup(qt, sizes):
    """Build the plain and localized algebra of each size with their
    structure maps (each map point-checks its images when built)."""
    for n in sizes:
        for localized in (False, True):
            alg = qt.build(n, localized)
            qt.sigma_spec(alg)
            qt.sigma_spec(alg, inverse=True)
            qt.rho_spec(alg)
            qt.gamma_spec(alg)
            if n % 2 == 0:
                qt.theta_spec(alg)
            if localized:
                qt.antipode_spec(alg)


def _passed(report):
    return None if report.passed else report.line()


# -- check_n7 -----------------------------------------------------------------

CHECK_N = 7


def check_n7_setup(qt):
    _setup(qt, (CHECK_N,))


def check_n7_ops(qt, seed):
    """Every suite plus the negative controls, in the order and with the
    suite seed (0) of ``qtriangular --n 7 check all``, so this workload takes
    nothing from the benchmark seed.  At n = 7 the random elements of the
    star suite cost from 0.6 s to 40 s depending on the suite seed, and the
    order decides which suite fills the shared caches, so varying either
    would make the batch's size a draw."""
    ops = []
    for name in list(qt.SUITES) + ["negative-controls"]:
        if name == "negative-controls":
            # passes exactly when every mutated structure fails
            run = lambda: qt.negative_controls_report(CHECK_N)  # noqa: E731
        else:
            run = lambda fn=qt.SUITES[name]: fn(CHECK_N, seed=0)  # noqa: E731
        ops.append((name, run, _passed))
    return ops


# -- rank2_exact --------------------------------------------------------------

# sized so that the median op falls where the oracle and group-law
# latencies overlap, not at the edge of the faster Hopf tests; 375 triples
# draw each of the 125 exponent triples 9 times
TRIPLES = 375
ORACLE_PAIRS = 600
HOPF_TESTS = 200
CLASSIFY_BOUND = 3
H1_BOUND = 3


def _unit_pool(qt):
    G, qpow = qt.GaussianRational, qt.qpow
    return (
        qpow(0, 1), qpow(0, -1), qpow(0, 3), qpow(0, Fraction(1, 3)),
        qpow(0, G(0, 1)), qpow(0, G(0, -2)), qpow(1, 1), qpow(-1, -2),
        qpow(2, Fraction(3, 4)), qpow(-2, G(1, -1)),
    )


class _Sextuples:
    """Seeded sextuples whose exponent triples run through every point of
    [-span, span]^3, and whose unit scalars through the pool, each in a
    seeded order.  Every seed then draws the same multiset of exponents and
    units, so the batch's cost, and its slowest ops above all, vary little
    with the seed."""

    def __init__(self, qt, rng, span):
        self.qt, self.rng, self.span = qt, rng, span
        self.pool = _unit_pool(qt)
        self._exps, self._units, self._js = [], [], []

    def _next(self, bag, fill):
        if not bag:
            bag.extend(fill())
            self.rng.shuffle(bag)
        return bag.pop()

    def _unit(self):
        return self._next(self._units, lambda: self.pool)

    def draw(self):
        r = range(-self.span, self.span + 1)
        j, k, l = self._next(self._exps, lambda: itertools.product(r, r, r))
        return self.qt.Sextuple(self._unit(), self._unit(), self._unit(), j, k, l)

    def draw_hopf(self):
        """A member of the Hopf subgroup: l11 = l22 = 1, k = j, l = -j."""
        one = self.qt.ScalarQ.constant(1)
        j = self._next(self._js, lambda: range(-self.span, self.span + 1))
        return self.qt.Sextuple(self._unit(), one, one, j, j, -j)


def _in_hopf_subgroup(s):
    """The paper's description of the Hopf automorphisms, written out here
    so the library's two tests are compared against a third statement."""
    return s.l11 == 1 and s.l22 == 1 and s.k == s.j and s.l == -s.j


def _all_true(answer):
    ok, detail = answer
    return None if ok else f"law failed: {detail}"


def rank2_exact_setup(qt):
    _setup(qt, (2,))


def rank2_exact_ops(qt, seed):
    """The n = 2 results: sextuple group laws, the endomorphism-composition
    oracle, the Hopf-subgroup test against the comultiplication, the
    derivation classification and table, and the H1 certificate."""
    rng = random.Random(seed)
    sextuples = _Sextuples(qt, rng, 2)
    ident = qt.Sextuple.identity()
    ut = qt.build(2, True)
    gens = [ut.gen(g) for g in range(ut.ngens)]
    ops = []

    def group_laws(a, b, c):
        compose, inverse, rho = qt.g_compose, qt.g_inverse, qt.rho_conjugate
        left = compose(compose(a, b), c)
        g1, g2, g3 = qt.g_decompose(a)
        laws = (
            left == compose(a, compose(b, c)),
            compose(a, inverse(a)) == ident,
            compose(inverse(a), a) == ident,
            rho(compose(a, b)) == compose(rho(a), rho(b)),
            rho(rho(a)) == a,
            compose(g1, compose(g2, g3)) == a,
        )
        return all(laws), f"{laws} {left}"

    def oracle(a, b):
        outer, inner = qt.g_to_endo(a), qt.g_to_endo(b)
        comp = qt.g_to_endo(qt.g_compose(a, b))
        images = [comp.apply(g) for g in gens]
        laws = tuple(outer.apply(inner.apply(g)) == img for g, img in zip(gens, images))
        return all(laws), f"{laws} {images}"

    def hopf(s, expected):
        verdicts = (qt.is_hopf_auto(s), qt.delta_compatible(s))
        return verdicts == (expected, expected), f"{verdicts} expected {expected}"

    def classify():
        rows = qt.classify_T2(CLASSIFY_BOUND)
        bad = [r for r in rows if r[2] != qt.dertypes_expected(r[0], r[1])]
        ok = len(rows) == 3 * (CLASSIFY_BOUND + 1) ** 3 and not bad
        return ok, f"{len(rows)} rows, {sum(r[2] for r in rows)} derivations, bad {bad[:3]}"

    def report(fn):
        rep = fn()
        return rep.passed, rep.line()

    for _ in range(TRIPLES):
        a, b, c = sextuples.draw(), sextuples.draw(), sextuples.draw()
        ops.append(("group-laws", lambda a=a, b=b, c=c: group_laws(a, b, c), _all_true))
    for _ in range(ORACLE_PAIRS):
        a, b = sextuples.draw(), sextuples.draw()
        ops.append(("endo-oracle", lambda a=a, b=b: oracle(a, b), _all_true))
    for k in range(HOPF_TESTS):
        s = sextuples.draw_hopf() if k % 2 else sextuples.draw()
        ops.append(("hopf-test", lambda s=s, e=_in_hopf_subgroup(s): hopf(s, e), _all_true))
    ops.append(("classify", classify, _all_true))
    ops.append(("derivation-table", lambda: report(qt.utq2_derivation_table), _all_true))
    ops.append(("h1-membership", lambda: report(lambda: qt.h1_membership_T2(H1_BOUND)), _all_true))
    return ops


# -- cli_session --------------------------------------------------------------

CLI_SIZES = (2, 3, 4, 5)

#: how many queries of each kind a session generates; fixed counts, and a
#: fixed spread of sizes and flags within each kind, keep the session's
#: cost from varying with the seed beyond what the random elements add
MIX = (
    ("normalize", 330), ("equal", 210), ("delta", 180), ("counit", 120),
    ("antipode", 180), ("star", 180), ("b", 120), ("center", 60), ("autos", 90),
    ("malformed", 30),
)

#: the README's CLI examples: argv and the output the README states (None
#: where it states none; those are checked like generated queries)
README_EXAMPLES = (
    ("normalize", ["normalize", "a[2,2]*a[1,2] - q*a[1,2]*a[2,2]"], "0\n"),
    ("equal", ["equal", "a[2,2]*a[1,2]", "q*a[1,2]*a[2,2]"], "equal\n"),
    ("delta", ["--n", "3", "delta", "a[1,3]"], None),
    ("counit", ["counit", "a[1,1]*a[2,2]"], None),
    ("antipode", ["--localized", "antipode", "a[1,2]"], "- a[1,1]^-1*a[1,2]*a[2,2]^-1\n"),
    ("star", ["--localized", "star", "a[1,1]"], "a[2,2]^-1\n"),
    ("b", ["--n", "3", "b", "1", "3"], "q^2*a[1,2]*a[2,3] - q^3*a[1,3]*a[2,2]\n"),
    ("center", ["--localized", "center"], "central monomial direction: (1, 0, -1)\n"),
    ("check", ["--n", "4", "check", "all"], None),
    ("classify", ["derivations", "classify", "--bound", "3"], None),
    ("check-table", ["derivations", "check-table"], None),
    ("autos", ["autos", "compose", "[1,1,1,1,0,0]", "[1,1,1,0,1,0]"], "[1,1,1,1,2,-1]\n"),
    ("autos", ["autos", "is-hopf", "[q,1,1,2,2,-2]"], None),
)


def _profile(n, kind):
    """Element sizes that keep every query small.  Δ, S and * of a monomial
    grow with the product of its generators' chain counts, and ``equal``
    multiplies three elements, so those kinds get the smallest elements:
    their largest draws would otherwise set ``op_p99_ms``, which then moved
    by 11% between seeds."""
    heavy = kind in ("equal", "delta", "antipode", "star")
    if n <= 3:
        return {"max_terms": 2 if heavy else 3, "inv_range": (-2, 2), "pos_range": (0, 2)}
    return {"max_terms": 2, "inv_range": (-1, 1), "pos_range": (0, 1),
            "max_support": 2 if heavy else 3}


def digest(rc, out):
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()[:16]


def cli_session_setup(qt):
    _setup(qt, CLI_SIZES)


class _Query:
    """One CLI query: its argv, the exit code it must return, and a check of
    its stdout against the library's own answer."""

    __slots__ = ("kind", "argv", "rc", "verify", "readme_out")

    def __init__(self, kind, argv, rc, verify=None, readme_out=None):
        self.kind, self.argv, self.rc = kind, argv, rc
        self.verify, self.readme_out = verify, readme_out


def _element_check(qt, alg, expected, as_json):
    """The printed normal form must re-parse to the computed element; the
    JSON form must also carry that element's terms."""

    def verify(out):
        want = expected()
        if as_json:
            payload = json.loads(out)
            if qt.Element.from_json(alg, payload["terms"]) != want:
                return "JSON terms differ from the library's answer"
            out = payload["expr"]
        if qt.parse(out.strip(), alg) != want:
            return "printed normal form does not re-parse to the library's answer"
        return None

    return verify


def _scalar_check(qt, expected, as_json):
    def verify(out):
        want = expected()
        if as_json:
            payload = json.loads(out)
            if qt.ScalarQ.from_json(payload["terms"]) != want:
                return "JSON terms differ from the library's answer"
            out = payload["scalar"]
        if qt.parse_scalar(out.strip()) != want:
            return "printed scalar does not re-parse to the library's answer"
        return None

    return verify


def _tensor_check(qt, alg, expr, as_json):
    def verify(out):
        want = qt.coproduct(qt.parse(expr, alg))
        if as_json:
            payload = json.loads(out)
            terms = {(tuple(u), tuple(v)): qt.ScalarQ.from_json(c) for u, v, c in payload["terms"]}
            if terms != want.terms:
                return "JSON terms differ from the library's answer"
            out = payload["tensor"]
        if out.strip() != str(want):
            return "printed tensor differs from the library's answer"
        return None

    return verify


def _sextuple_check(qt, expected, as_json):
    def verify(out):
        text = json.loads(out)["sextuple"] if as_json else out.strip()
        return None if qt.parse_sextuple(text) == expected() else "sextuple differs"

    return verify


def _gen_query(qt, rng, sextuples, kind, k):
    """The k-th query of a kind: sizes cycle through CLI_SIZES, half of
    them localized (17 in 20 for S and *, which need it), 3 in 10 JSON."""
    n = CLI_SIZES[k % len(CLI_SIZES)]
    k //= len(CLI_SIZES)
    localized = k % 20 < 17 if kind in ("antipode", "star") else k % 2 == 0
    as_json = k // 2 % 10 < 3
    alg = qt.build(n, localized)
    flags = ["--n", str(n)] + (["--localized"] if localized else []) + (["--json"] if as_json else [])

    def element():
        return qt.random_element(alg, rng, **_profile(n, kind))

    if kind == "normalize":
        e, f = element(), element()
        return _Query(kind, flags + ["normalize", f"({e})*({f})"], 0,
                      _element_check(qt, alg, lambda: e * f, as_json))
    if kind == "equal":
        e, f, g = element(), element(), element()
        if rng.random() < 0.5:
            lhs, rhs, rc = f"({e})*(({f})+({g}))", f"({e})*({f})+({e})*({g})", 0
        else:
            extra = rng.choice(alg.gen_names + ("q", "i", "1/2"))
            lhs, rhs, rc = f"({e})*({f})", f"({e})*({f})+{extra}", 1
        word = "equal" if rc == 0 else "not equal"
        verify = (lambda out: None if json.loads(out)["equal"] is (rc == 0) else "wrong verdict") \
            if as_json else (lambda out: None if out.strip() == word else "wrong verdict")
        return _Query(kind, flags + ["equal", lhs, rhs], rc, verify)
    if kind == "delta":
        expr = str(element())
        return _Query(kind, flags + ["delta", expr], 0, _tensor_check(qt, alg, expr, as_json))
    if kind == "counit":
        e = element()
        return _Query(kind, flags + ["counit", str(e)], 0, _scalar_check(qt, lambda: qt.counit(e), as_json))
    if kind in ("antipode", "star"):
        e = element()
        if not localized:
            # both maps live on the localized algebra only: exit code 2
            return _Query(kind, flags + [kind, str(e)], 2)
        fn = getattr(qt, kind)
        return _Query(kind, flags + [kind, str(e)], 0, _element_check(qt, alg, lambda: fn(e), as_json))
    if kind == "b":
        i, j = rng.randint(1, n), rng.randint(1, n)
        if i > j:
            return _Query(kind, flags + ["b", str(i), str(j)], 2)
        return _Query(kind, flags + ["b", str(i), str(j)], 0,
                      _element_check(qt, alg, lambda: qt.b_element(i, j, alg), as_json))
    if kind == "center":
        def verify(out):
            lat = qt.center_lattice(alg)
            if as_json:
                ok = json.loads(out)["generators"] == [list(v) for v in lat.generators]
            else:
                ok = all(f"direction: {tuple(v)}" in out for v in lat.generators)
            return None if ok else "central directions differ"
        return _Query(kind, flags + ["center"], 0, verify)
    if kind == "autos":
        json_flag = ["--json"] if as_json else []
        a, b = sextuples.draw(), sextuples.draw()
        action = rng.choice(("compose", "invert", "conjugate", "decompose", "is-hopf"))
        if action == "compose":
            return _Query(kind, json_flag + ["autos", "compose", str(a), str(b)], 0,
                          _sextuple_check(qt, lambda: qt.g_compose(a, b), as_json))
        if action in ("invert", "conjugate"):
            fn = qt.g_inverse if action == "invert" else qt.rho_conjugate
            return _Query(kind, json_flag + ["autos", action, str(a)], 0,
                          _sextuple_check(qt, lambda: fn(a), as_json))
        if action == "decompose":
            def verify(out):
                parts = json.loads(out)["factors"] if as_json else out.strip().split(" * ")
                g1, g2, g3 = (qt.parse_sextuple(p) for p in parts)
                return None if qt.g_compose(g1, qt.g_compose(g2, g3)) == a else "factors do not compose back"
            return _Query(kind, json_flag + ["autos", "decompose", str(a)], 0, verify)
        if rng.random() < 0.5:
            a = sextuples.draw_hopf()
        hopf = _in_hopf_subgroup(a)
        return _Query(kind, json_flag + ["autos", "is-hopf", str(a)], 0 if hopf else 1)
    # malformed input must fail fast with exit code 2
    bad = rng.choice((f"({element()}", f"a[{n + 1},{n + 1}]", f"{element()} ** 2", "a[2,1]"))
    return _Query(kind, flags + ["normalize", bad], 2)


def _readme_query(qt, kind, argv, out):
    if kind == "delta":
        verify = _tensor_check(qt, qt.build(3), argv[-1], False)
    elif kind == "counit":
        verify = _scalar_check(qt, lambda: qt.counit(qt.parse(argv[-1], qt.build(2))), False)
    elif kind == "check":
        verify = lambda o: None if o.count(": PASS") == 8 else "a suite did not pass"  # noqa: E731
    elif kind == "classify":
        verify = lambda o: None if o.count("\n") == 3 * 4 ** 3 else "wrong row count"  # noqa: E731
    elif kind == "check-table":
        verify = lambda o: None if o.strip().endswith(": PASS") else "table failed"  # noqa: E731
    elif argv[1] == "is-hopf":
        verify = lambda o: None if o == "hopf\n" else "not reported as hopf"  # noqa: E731
    else:
        verify = None
    return _Query(kind, argv, 0, verify, out)


def _run_cli(qt, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = qt.cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv
            rc = exc.code
    return rc, out.getvalue()


def cli_session_queries(qt, seed):
    rng = random.Random(seed)
    sextuples = _Sextuples(qt, rng, 2)
    queries = [_gen_query(qt, rng, sextuples, kind, k) for kind, count in MIX for k in range(count)]
    rng.shuffle(queries)
    for kind, argv, out in README_EXAMPLES:
        queries.insert(rng.randint(0, len(queries)), _readme_query(qt, kind, argv, out))
    return queries


def cli_session_ops(qt, seed):
    """About 1.5k seeded queries through ``cli.main``, one after another,
    with stdout captured.  For the default seed every query's exit code and
    stdout must also match the digest recorded in DIGEST_FILE."""
    queries = cli_session_queries(qt, seed)
    recorded = None
    if seed == DEFAULT_SEED:
        recorded = DIGEST_FILE.read_text().split() if DIGEST_FILE.is_file() else []
    ops = []
    for k, query in enumerate(queries):
        want_digest = None
        if recorded is not None:
            want_digest = recorded[k] if k < len(recorded) else "missing"

        def check(answer, query=query, want_digest=want_digest):
            rc, out = answer
            if rc != query.rc:
                return f"{query.argv}: exit code {rc}, expected {query.rc}"
            if query.readme_out is not None and out != query.readme_out:
                return f"{query.argv}: printed {out!r}, README states {query.readme_out!r}"
            if want_digest is not None and digest(rc, out) != want_digest:
                return f"{query.argv}: output differs from the recorded digest"
            if rc == 0 and query.verify is not None:
                msg = query.verify(out)
                if msg:
                    return f"{query.argv}: {msg}"
            return None

        ops.append((query.kind, lambda argv=query.argv: _run_cli(qt, argv), check))
    return ops


def record_digests(qt):
    """Write DIGEST_FILE from the default seed's session as the current
    library answers it."""
    lines = []
    for query in cli_session_queries(qt, DEFAULT_SEED):
        lines.append(digest(*_run_cli(qt, query.argv)))
    DIGEST_FILE.write_text("\n".join(lines) + "\n")


WORKLOADS = {
    "check_n7": (check_n7_setup, check_n7_ops),
    "rank2_exact": (rank2_exact_setup, rank2_exact_ops),
    "cli_session": (cli_session_setup, cli_session_ops),
}
