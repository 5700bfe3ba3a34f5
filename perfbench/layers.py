"""Layer hooks installed from outside the library, at run time.

Two kinds of hook wrap public functions of ``qtriangular``:

* ``Timers`` measure the wall time of a few coarse calls (each suite, the
  H1 certificate, the classification sweep).  They cost a few clock reads
  per call, so the untraced run keeps them.
* ``Tracer`` keeps a span for every call at the op, suite, structure-map
  and element-product boundaries: name, start, end, parent span and op id.
  The innermost hot calls (Q(i) and ScalarQ arithmetic, monomial
  reordering) are far too many to store one by one; they are aggregated on
  their parent span as a count plus self time.

A hooked name that the library no longer defines is skipped, so its metrics
are absent instead of the run failing.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from pathlib import Path

# (metric key, module, "Class.attr" or "function") -- one entry per hooked
# callable; several entries may share a key.
HOT = (
    ("coeff.gr_mul", "coeff", "GaussianRational.__mul__"),
    ("coeff.gr_add", "coeff", "GaussianRational.__add__"),
    ("coeff.scalar_mul", "coeff", "ScalarQ.__mul__"),
    ("coeff.scalar_add", "coeff", "ScalarQ.__add__"),
    ("coeff.divexact", "coeff", "ScalarQ.divexact"),
    ("coeff.pow", "coeff", "ScalarQ.__pow__"),
    ("coeff.pow", "coeff", "GaussianRational.__pow__"),
    ("qalgebra.monomial_mul", "qalgebra", "QAlgebra.monomial_mul"),
)

HOT_KEYS = {key for key, _, _ in HOT}

SPANS = (
    ("qalgebra.element_mul", "qalgebra", "Element.__mul__"),
    ("qalgebra.tensor_mul", "qalgebra", "TensorElement.__mul__"),
    ("qalgebra.morphism_apply", "qalgebra", "MorphismSpec.apply"),
    ("qalgebra.is_point", "qalgebra", "is_point"),
    ("qalgebra.element_pow", "qalgebra", "Element.__pow__"),
    ("triangular.coproduct", "triangular", "coproduct"),
    ("triangular.antipode", "triangular", "antipode"),
    ("triangular.star", "triangular", "star"),
    ("triangular.counit", "triangular", "counit"),
    ("deriv.is_derivation", "deriv", "is_derivation"),
    ("deriv.derivation_apply", "deriv", "DerivationSpec.apply"),
    ("autos.g_compose", "autos", "g_compose"),
    ("autos.g_inverse", "autos", "g_inverse"),
    ("autos.g_to_endo", "autos", "g_to_endo"),
    ("autos.delta_compatible", "autos", "delta_compatible"),
    ("cli.parse", "cli", "parse"),
    ("cli.parse", "cli", "parse_scalar"),
    ("cli.format", "cli", "format_element"),
    ("cli.format", "cli", "format_tensor"),
    ("cli.main", "cli", "main"),
)

# spans whose output term count is recorded as ``<key>.terms_out``
COUNT_TERMS = ("qalgebra.element_mul", "qalgebra.tensor_mul")

# coarse calls timed as ``<key>.s``; in the traced run they are spans too
COARSE = (
    ("structure.bialgebra", "structure", "check_bialgebra"),
    ("structure.antipode", "structure", "check_antipode"),
    ("structure.s-squared", "structure", "check_s_squared"),
    ("structure.commutation-lemmas", "structure", "check_commutation_lemmas"),
    ("structure.morphism-symmetries", "structure", "check_morphism_symmetries"),
    ("structure.star", "structure", "check_star"),
    ("structure.point-product", "structure", "check_point_product"),
    ("structure.negative-controls", "structure", "negative_controls_report"),
    ("deriv.h1_membership", "deriv", "h1_membership_T2"),
    ("deriv.classify", "deriv", "classify_T2"),
)

# lru-cached structure maps whose hit ratio is reported
CACHED = ("b_element", "antipode_spec", "rho_spec", "gamma_spec", "theta_spec")

# modules whose source line counts are reported as ``<module>.lines``
MODULES = ("coeff", "qalgebra", "triangular", "structure", "deriv", "autos", "cli")


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qtriangular" or name.startswith("qtriangular."))]


def hook(module: str, target: str, make) -> bool:
    """Replace ``qtriangular.<module>.<target>`` by ``make(original)``.

    Every other binding of the same object is replaced too: class aliases
    such as ``__rmul__ = __mul__``, names imported with ``from .x import f``
    and values of module-level dicts such as ``structure.SUITES``.  Returns
    False, changing nothing, when the target does not exist.
    """
    mod = sys.modules.get(f"qtriangular.{module}")
    if mod is None:
        return False
    if "." in target:
        cls_name, attr = target.split(".")
        cls = getattr(mod, cls_name, None)
        orig = vars(cls).get(attr) if isinstance(cls, type) else None
        if orig is None:
            return False
        wrapped = make(orig)
        for name, value in list(vars(cls).items()):
            if value is orig:
                setattr(cls, name, wrapped)
        return True
    orig = getattr(mod, target, None)
    if not callable(orig):
        return False
    wrapped = make(orig)
    for m in _library_modules():
        for name, value in list(vars(m).items()):
            if value is orig:
                setattr(m, name, wrapped)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = wrapped
    return True


class Timers:
    """Wall seconds per coarse key; a call nested in another timed call
    (the mutated suites inside the negative controls) is not counted again."""

    def __init__(self):
        self.seconds = {}
        self._busy = False

    def install(self):
        for key, module, target in COARSE:
            if hook(module, target, lambda fn, key=key: self._wrap(key, fn)):
                self.seconds.setdefault(key, 0.0)

    def _wrap(self, key, fn):
        perf = time.perf_counter

        def timed(*args, **kwargs):
            if self._busy:
                return fn(*args, **kwargs)
            self._busy = True
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[key] += perf() - t0
                self._busy = False

        return timed


# hot-aggregate key counting ScalarQ multiplies of two single-term operands
UNIT_KEY = "coeff.scalar_mul.unit"

# fields of a span record
NAME, START, END, PARENT, OP, HOT_AGG, SELF, TERMS = range(8)


class Tracer:
    """In-memory spans plus per-span aggregates of the hot calls.

    A span record is ``[name, start, end, parent, op, hot, self_s, terms]``:
    ``parent`` indexes the enclosing record, ``op`` is the id of the
    workload op it belongs to (-1 for set-up), ``hot`` maps each hot key
    called directly under it to ``[calls, self_s]``, and ``terms`` is the
    output term count of an element or tensor product.  Record 0 is the
    root, which takes whatever runs outside any other span.

    ``_child`` is a stack of child-time accumulators, one per open call of
    either kind, so a call's self time is its duration minus its direct
    children's.
    """

    def __init__(self):
        self.spans = [["root", time.perf_counter(), 0.0, -1, -1, {}, 0.0, None]]
        self._open = [0]
        self._child = [0.0]
        self.op = -1
        self.present = set()

    def install(self):
        for key, module, target in HOT:
            make = self._unit_hot if key == "coeff.scalar_mul" else self._hot
            if hook(module, target, lambda fn, key=key, make=make: make(key, fn)):
                self.present.add(key)
        for key, module, target in SPANS + COARSE:
            if hook(module, target, lambda fn, key=key: self._span(key, fn)):
                self.present.add(key)

    def _hot(self, key, fn):
        perf = time.perf_counter
        child, open_, spans = self._child, self._open, self.spans

        def hot(*args, **kwargs):
            child.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                own = dt - child.pop()
                child[-1] += dt
                agg = spans[open_[-1]][HOT_AGG]
                rec = agg.get(key)
                if rec is None:
                    agg[key] = [1, own]
                else:
                    rec[0] += 1
                    rec[1] += own

        return hot

    def _unit_hot(self, key, fn):
        inner = self._hot(key, fn)
        open_, spans = self._open, self.spans

        def scalar_mul(a, b):
            # both operands single-term: the fast path ROADMAP item 2 plans;
            # a plain number operand is coerced to one term (zero to none)
            if len(a.terms) == 1 and (len(b.terms) == 1 if hasattr(b, "terms") else b != 0):
                agg = spans[open_[-1]][HOT_AGG]
                rec = agg.get(UNIT_KEY)
                if rec is None:
                    agg[UNIT_KEY] = [1, 0.0]
                else:
                    rec[0] += 1
            return inner(a, b)

        return scalar_mul

    def _span(self, key, fn):
        perf = time.perf_counter
        child, open_, spans = self._child, self._open, self.spans
        count_terms = key in COUNT_TERMS

        def span(*args, **kwargs):
            rec = [key, 0.0, 0.0, open_[-1], self.op, {}, 0.0, None]
            spans.append(rec)
            open_.append(len(spans) - 1)
            child.append(0.0)
            rec[START] = t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = t1 = perf()
                dt = t1 - t0
                rec[SELF] = dt - child.pop()
                child[-1] += dt
                open_.pop()
                if not rec[HOT_AGG]:
                    rec[HOT_AGG] = None
            if count_terms:
                rec[TERMS] = len(getattr(out, "terms", ()))
            return out

        return span

    def run_phase(self, name: str, op: int, fn):
        """Run ``fn()`` in a span ``name`` whose records all carry ``op``."""
        self.op = op
        try:
            return self._span(name, fn)()
        finally:
            self.op = -1

    def metrics(self, exclude_op: int, scale: float) -> dict:
        """Calls and self time (times ``scale``) per hooked key, output term
        counts and the ScalarQ single-term share, over every record not in
        ``exclude_op``."""
        calls, self_s, terms = {}, {}, {}
        for rec in self.spans:
            if rec[OP] == exclude_op:
                continue
            for key, (n, own) in (rec[HOT_AGG] or {}).items():
                calls[key] = calls.get(key, 0) + n
                self_s[key] = self_s.get(key, 0.0) + own
            key = rec[NAME]
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + rec[SELF]
            if rec[TERMS] is not None:
                terms[key] = terms.get(key, 0) + rec[TERMS]
        out = {}
        for key in sorted(self.present):
            out[f"{key}.calls"] = calls.get(key, 0)
            out[f"{key}.self_s"] = self_s.get(key, 0.0) * scale
        for key in COUNT_TERMS:
            if key in self.present:
                out[f"{key}.terms_out"] = terms.get(key, 0)
        if "coeff.scalar_mul" in self.present:
            n = calls.get("coeff.scalar_mul", 0)
            out["coeff.scalar_mul.unit_share"] = calls.get(UNIT_KEY, 0) / n if n else 0.0
        return out

    def write(self, path: Path):
        """Write every span record as one JSON list per line, gzipped."""
        self.spans[0][END] = time.perf_counter()
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")


def cache_hit_ratios() -> dict:
    """``triangular.<fn>.hit_ratio`` from ``cache_info()`` of the lru-cached
    structure maps (0 when a cache saw no lookup)."""
    mod = sys.modules.get("qtriangular.triangular")
    out = {}
    for name in CACHED:
        fn = getattr(mod, name, None)
        info = getattr(fn, "cache_info", None)
        if info is None:
            continue
        ci = info()
        total = ci.hits + ci.misses
        out[f"triangular.{name}.hit_ratio"] = ci.hits / total if total else 0.0
    return out


def source_lines(src: Path) -> dict:
    """``src.lines`` over every module of the package, and
    ``<module>.lines`` for each module named in MODULES that exists."""
    pkg = src / "qtriangular"
    out = {"src.lines": 0}
    for path in sorted(pkg.glob("*.py")):
        n = len(path.read_text(encoding="utf-8").splitlines())
        out["src.lines"] += n
        if path.stem in MODULES:
            out[f"{path.stem}.lines"] = n
    return out
