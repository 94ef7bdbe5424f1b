"""Span tracing of paraclaw from outside the package, for the traced passes.

``Tracer.install()`` wraps the public entry points of each paraclaw module
(cli, parabolic, claws, jets, linalg, expr) and rebinds every name in every
loaded ``paraclaw`` module namespace that refers to the original, so that
``claws.euler_operator`` and ``linalg.rref`` as called by ``nullspace`` are
traced too.  A wrapper records one span (name, start, end, parent, problem)
per outermost call of its function and counts every call; nested calls of
the same function (``poly_gcd``, ``Expr.substitute``) are counted, not timed
again.  Spans stay in memory until the pass writes them out.

``layer_metrics`` turns the spans and counts of the traced passes into the
per-layer metrics, as means per problem.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# (module, attribute) pairs timed with spans.
TIMED = (
    ("cli", "main"), ("cli", "parse"), ("cli", "parse_expression"),
    ("cli", "cmd_classify"), ("cli", "cmd_claws"), ("cli", "cmd_verify"),
    ("parabolic", "parabolicity_check"), ("parabolic", "ma_classify"),
    ("parabolic", "ma_traceless_residue"),
    ("claws", "generate_ansatz"), ("claws", "assemble_determining_system"),
    ("claws", "solve_exact"), ("claws", "find_conservation_laws"),
    ("claws", "reconstruct_flux"), ("claws", "verify"),
    ("claws", "cross_validate_ma"),
    ("jets", "reduce_to_spatial"), ("jets", "euler_operator"),
    ("jets", "invert_divergence"),
    ("linalg", "rref"), ("linalg", "nullspace"), ("linalg", "solve_particular"),
    ("linalg", "solve_dense"),
    ("expr", "poly_gcd"), ("expr", "Expr.substitute"),
)

# (module, attribute) pairs that are only counted: they run too often for a
# span per call.
COUNTED = (
    ("jets", "build_replacement_table"), ("jets", "total_derivative"),
    ("expr", "Poly.__mul__"),
)

# Spans of find_conservation_laws children that are not law extraction.
_NOT_EXTRACTION = {
    "claws.generate_ansatz", "claws.assemble_determining_system",
    "claws.solve_exact", "claws.reconstruct_flux", "claws.verify",
    "parabolic.parabolicity_check",
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, problem]
        self.counts: Counter = Counter()
        self.problem = ""
        self._stack: list[int] = []
        self._active: set[str] = set()

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "paraclaw" or name.startswith("paraclaw.")]
        for spec in TIMED:
            self._replace(modules, spec, self._timed)
        for spec in COUNTED:
            self._replace(modules, spec, self._counted)

    def _replace(self, modules, spec, make) -> None:
        modname, attr = spec
        module = importlib.import_module(f"paraclaw.{modname}")
        name = f"{modname}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, make(name, vars(cls)[meth]))
            return
        original = getattr(module, attr)
        wrapper = make(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, name, fn):
        counts, spans, stack, active = self.counts, self.spans, self._stack, self._active
        on_exit = _ON_EXIT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.problem]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                active.discard(name)
            if on_exit is not None:
                on_exit(self, span, args, result)
            return result
        return wrapper


def _sized(counter, size):
    def hook(tracer, span, args, result):
        tracer.counts[counter] += size(args, result)
    return hook


def _euler_exit(tracer, span, args, result):
    parent = span[3]
    if (parent >= 0 and tracer.spans[parent][0] == "claws.find_conservation_laws"
            and result.is_zero):
        tracer.counts["claws.trivial_vectors"] += 1


_ON_EXIT = {
    "claws.generate_ansatz": _sized("claws.ansatz_unknowns", lambda a, r: len(r[1])),
    "claws.assemble_determining_system":
        _sized("claws.determining_rows", lambda a, r: r.num_equations),
    "claws.solve_exact": _sized("claws.null_dim", lambda a, r: len(r)),
    "claws.find_conservation_laws": _sized("claws.laws", lambda a, r: len(r)),
    "linalg.rref": _sized("linalg.rref_cols", lambda a, r: a[1]),
    "linalg.solve_particular": _sized("jets.flux_ansatz_cols", lambda a, r: a[2]),
    "jets.euler_operator": _euler_exit,
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def span_times(spans, scale: float = 1.0) -> tuple[Counter, Counter, Counter]:
    """(inclusive time, self time, extraction time) summed per span name,
    each duration multiplied by ``scale``."""
    incl, child, extraction = Counter(), Counter(), Counter()
    durations = [(s[2] - s[1]) * scale for s in spans]
    for s, d in zip(spans, durations):
        incl[s[0]] += d
        if s[3] >= 0:
            child[s[3]] += d
            parent = spans[s[3]][0]
            if parent == "claws.find_conservation_laws" and s[0] in _NOT_EXTRACTION:
                extraction[s[3]] += d
    self_time = Counter()
    extract = Counter()
    for i, (s, d) in enumerate(zip(spans, durations)):
        self_time[s[0]] += d - child[i]
        if s[0] == "claws.find_conservation_laws":
            extract[s[0]] += d - extraction[i]
    return incl, self_time, extract


def layer_metrics(records, counts: Counter, problems: int) -> dict[str, float]:
    """Per-layer metrics over the traced pass records, as means per problem
    (ratios as totals over totals), times at the reference speed."""
    incl, self_time, extract = Counter(), Counter(), Counter()
    for record in records:
        parts = span_times(record["spans"], record["scale"])
        for total, part in zip((incl, self_time, extract), parts):
            total.update(part)
    p = max(problems, 1)

    def per(v):
        return v / p

    null_dim = counts["claws.null_dim"]
    return {
        "cli.parse_s": per(incl["cli.parse"] + incl["cli.parse_expression"]),
        "cli.main_self_s": per(self_time["cli.main"]),
        "parabolic.parabolicity_calls": per(counts["parabolic.parabolicity_check"]),
        "parabolic.parabolicity_s": per(incl["parabolic.parabolicity_check"]),
        "parabolic.ma_classify_calls": per(counts["parabolic.ma_classify"]),
        "parabolic.ma_classify_s": per(incl["parabolic.ma_classify"]),
        "parabolic.residue_s": per(incl["parabolic.ma_traceless_residue"]),
        "claws.ansatz_unknowns": per(counts["claws.ansatz_unknowns"]),
        "claws.generate_s": per(incl["claws.generate_ansatz"]),
        "claws.determining_rows": per(counts["claws.determining_rows"]),
        "claws.assemble_s": per(incl["claws.assemble_determining_system"]),
        "claws.null_dim": per(null_dim),
        "claws.solve_s": per(incl["claws.solve_exact"]),
        "claws.extract_s": per(extract["claws.find_conservation_laws"]),
        "claws.trivial_vectors": per(counts["claws.trivial_vectors"]),
        "claws.useful_ratio": counts["claws.laws"] / null_dim if null_dim else 0.0,
        "claws.flux_s": per(incl["claws.reconstruct_flux"]),
        "claws.verify_calls": per(counts["claws.verify"]),
        "claws.verify_s": per(incl["claws.verify"]),
        "claws.cross_validate_s": per(incl["claws.cross_validate_ma"]),
        "jets.replacement_tables_built": per(counts["jets.build_replacement_table"]),
        "jets.reduce_calls": per(counts["jets.reduce_to_spatial"]),
        "jets.reduce_s": per(incl["jets.reduce_to_spatial"]),
        "jets.euler_calls": per(counts["jets.euler_operator"]),
        "jets.euler_s": per(incl["jets.euler_operator"]),
        "jets.total_derivative_calls": per(counts["jets.total_derivative"]),
        "jets.invert_divergence_calls": per(counts["jets.invert_divergence"]),
        "jets.invert_divergence_s": per(incl["jets.invert_divergence"]),
        "jets.flux_solves": per(counts["linalg.solve_particular"]),
        "jets.flux_ansatz_cols": per(counts["jets.flux_ansatz_cols"]),
        "linalg.rref_calls": per(counts["linalg.rref"]),
        "linalg.rref_cols": per(counts["linalg.rref_cols"]),
        "linalg.rref_s": per(incl["linalg.rref"]),
        "linalg.nullspace_s": per(incl["linalg.nullspace"]),
        "linalg.solve_particular_s": per(incl["linalg.solve_particular"]),
        "linalg.solve_dense_s": per(incl["linalg.solve_dense"]),
        "expr.poly_gcd_calls": per(counts["expr.poly_gcd"]),
        "expr.poly_gcd_s": per(incl["expr.poly_gcd"]),
        "expr.substitute_calls": per(counts["expr.Expr.substitute"]),
        "expr.substitute_s": per(incl["expr.Expr.substitute"]),
        "expr.poly_mul_calls": per(counts["expr.Poly.__mul__"]),
    }
