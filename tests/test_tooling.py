"""Checks on the package's structure, read from source.

The names that perfbench/tracing.py wraps must exist in paraclaw.  The
tracer rebinds each (module, attribute) pair by ``getattr`` when it is
installed, so a deleted or renamed name would break every traced benchmark
run.  The tracer's source is read and executed in a private namespace; no
file is imported, written or edited.

The tracer times the law search's stages by rebinding
``claws.generate_ansatz``, ``claws.assemble_determining_system`` and
``claws.solve_exact``, so the search must call each of them through its
module name, once, and it sizes them from their results; one search is
traced under the tracer in a fresh interpreter that writes no bytecode,
so the tracer's rebinding stays there and perfbench is only read.  The
determining system depends on the characteristic alone and is assembled
from the auxiliary equation with total derivatives only, from the
characteristic columns the search holds, so a search on the plan route
takes one raw Euler walk per t-free ansatz monomial in ``generate_ansatz``
and none in the assembly or the extraction; and its independence tests
build no reduced echelon.  A minor-affine search whose symbol is not 0
(strict, weak or forced) reads its pure-u columns off, with neither
``generate_ansatz`` nor the plan nor any Euler walk, and one whose
quartic form is not 0 returns no law after the size check, with no
search at all.  The search checks its size once, before it picks a
route; only ``generate_ansatz`` checks again, on the plan route.
The package has one divergence inverter: ``invert_divergence`` and the
search both run the integer homotopy core ``jets._homotopy``, and no
search builds a replacement table.  Raw term dicts have one kernel: only ``expr`` defines
``_add_terms``, ``_add_product``, ``_fields`` (the one decoding of a
monomial), ``_shifted`` and ``_cleared``.  D_J f has one
prefix memo, ``jets.Prolonged``: only ``jets`` defines ``__missing__``.
Every memo has one size budget: each ``functools.lru_cache`` is bounded by
``MAX_TERMS``, no unbounded ``functools.cache`` is used, and no function
empties a module-level name, so a memo cannot be a dict cleared at a bound
of its own.

The package's imports run one way, from the command layer down to the
kernel, and every name a module imports is used; each module's imports
are read with ``ast``.  The package ships only what a caller reads: every
module is imported from ``paraclaw/__init__.py``, directly or through
others, and every name in a module's ``__all__`` exists and is read
somewhere in ``src/``, ``tests/`` or ``perfbench/``.  The CLI reads a
well-formed request's arguments itself, with options spelled in full as
the benchmark sends them, so such a request in a fresh interpreter leaves
``argparse`` unimported; only ``-h``, a usage error or another spelling
imports it.  The package imports only the standard modules it calls:
``import paraclaw.cli`` under ``python -S`` loads neither ``dataclasses``
(nor ``inspect``, ``ast``, ``dis``, ``tokenize``, ``linecache`` or ``copy``,
which it pulls in) nor ``typing``."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING_PATH = os.path.join(ROOT, "perfbench", "tracing.py")


def _traced_names() -> tuple:
    namespace = {"__name__": "perfbench_tracing"}
    with open(TRACING_PATH, encoding="utf-8") as fh:
        exec(compile(fh.read(), TRACING_PATH, "exec"), namespace)
    return namespace["TIMED"] + namespace["COUNTED"]


@pytest.mark.parametrize("modname, attr", _traced_names(), ids=lambda v: v)
def test_traced_name_resolves(modname, attr):
    target = importlib.import_module(f"paraclaw.{modname}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


# backward Burgers and heat_2d, searched with force and unsafe_order, and
# the transport equation, whose symbol is 0, take the plan route
PLAN_ROUTE = [
    ("n=1; u_t = -u_xx - u*u_x", (2, 2, 1, True)),
    ("n=2; u_t = -u_11 - u_22", (2, 1, 1, True)),
    ("n=1; u_t = u_x", (2, 2, 0)),
]
PLAN_ROUTE_IDS = ["burgers", "heat_2d", "transport"]


@pytest.mark.parametrize("source, spec", PLAN_ROUTE, ids=PLAN_ROUTE_IDS)
def test_search_calls_traced_stages_by_module_name(monkeypatch, source, spec):
    from paraclaw import claws
    from paraclaw.grammar import parse
    calls = {}
    for name in ("generate_ansatz", "assemble_determining_system", "solve_exact"):
        def counting(*args, _name=name, _real=getattr(claws, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(claws, name, counting)
    laws = claws.find_conservation_laws(parse(source).equation(), claws.AnsatzSpec(*spec),
                                        force=True)
    assert laws
    assert calls == {"generate_ansatz": 1, "assemble_determining_system": 1,
                     "solve_exact": 1}


@pytest.mark.parametrize("source, spec, force", [
    ("n=1; u_t = u_xx + u*u_x", (2, 2, 1), False),
    ("n=2; u_t = u_11 + u_22", (2, 1, 1), False),
    ("n=2; u_t = u_11 + u_1", (2, 2, 1), False),
    ("n=2; u_t = u_11 - u_22", (2, 1, 1), True),
], ids=["burgers", "heat_2d", "weak", "forced"])
def test_minor_affine_search_reads_no_plan(monkeypatch, source, spec, force):
    # a minor-affine search whose symbol is not 0 reads its pure-u columns
    # off, on a strict, a weak and (with force) a not parabolic symbol: it
    # calls neither generate_ansatz nor _plan, the traced assembly and
    # solve once each, and back-substitutes only the determining system's
    # echelon
    from paraclaw import claws, linalg
    from paraclaw.grammar import parse
    calls, callers = {}, []
    for name in ("assemble_determining_system", "solve_exact"):
        def counting(*args, _name=name, _real=getattr(claws, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(claws, name, counting)

    def no_plan(*args):
        raise AssertionError("a minor-affine search read the plan")

    reduced = linalg.Echelon.reduced

    def recording(self):
        callers.append((sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name))
        return reduced(self)

    monkeypatch.setattr(claws, "generate_ansatz", no_plan)
    monkeypatch.setattr(claws, "_plan", no_plan)
    monkeypatch.setattr(linalg.Echelon, "reduced", recording)
    laws = claws.find_conservation_laws(parse(source).equation(), claws.AnsatzSpec(*spec),
                                        force)
    assert laws
    assert calls == {"assemble_determining_system": 1, "solve_exact": 1}
    assert callers == [("nullspace", "solve_exact")]


@pytest.mark.parametrize("source, spec, force", [
    ("n=2; u_t = u_11 + u_22 + (u_11 + u_22)^2", (2, 4, 3), False),
    ("n=3; u_t = u_11 + u_22 + u_33 + (u_11 + u_22 + u_33)^2", (2, 2, 2), False),
    ("n=2; u_t = u_11 + u_11^2", (2, 4, 3), False),
    ("n=2; u_t = -(u_11 + u_22 + (u_11 + u_22)^2)", (2, 4, 3), True),
], ids=["laplacian_squared", "n3-laplacian_squared", "weak", "forced"])
def test_strict_quartic_search_reads_no_plan(monkeypatch, source, spec, force):
    # a polynomial G whose quartic form is not 0 has no law, on a strict,
    # a weak and (with force) a not parabolic symbol alike: the search runs
    # the size check and nothing after it (no generate_ansatz, no _plan, no
    # assembly and no solve), and past MAX_TERMS the size check still
    # refuses it
    from paraclaw import claws
    from paraclaw.grammar import parse
    calls = []
    real_check = claws.check_ansatz_size

    def check(*args):
        calls.append("check_ansatz_size")
        return real_check(*args)

    def refuse(*args):
        raise AssertionError("a search with a quartic form searched")

    monkeypatch.setattr(claws, "check_ansatz_size", check)
    for name in ("generate_ansatz", "_plan", "assemble_determining_system", "solve_exact",
                 "_pure_u_columns", "_laws_of_columns"):
        monkeypatch.setattr(claws, name, refuse)
    eq = parse(source).equation()
    assert claws.find_conservation_laws(eq, claws.AnsatzSpec(*spec), force) == []
    assert calls == ["check_ansatz_size"]
    with pytest.raises(claws.AnsatzTooLarge):
        claws.find_conservation_laws(eq, claws.AnsatzSpec(2, 9, 3), force)


@pytest.mark.parametrize("source, other, spec", [
    (*PLAN_ROUTE[0][:1], "n=1; u_t = -u_xx - u^2*u_x", PLAN_ROUTE[0][1]),
    (*PLAN_ROUTE[1][:1], "n=2; u_t = -u_11 - 2*u_22 - u_1", PLAN_ROUTE[1][1]),
    (*PLAN_ROUTE[2][:1], "n=1; u_t = 3*u_x", PLAN_ROUTE[2][1]),
], ids=PLAN_ROUTE_IDS)
def test_search_takes_one_euler_operator(monkeypatch, source, other, spec):
    # one raw Euler walk per t-free ansatz monomial, inside generate_ansatz
    # (E_u(t^b m) = t^b E_u(m)); none in the assembly, which takes the kept
    # characteristic columns, none in the extraction, and no
    # euler_operator; a second search at the same bounds on another G
    # takes the same walks, as no memo is kept between searches
    from paraclaw import claws, jets
    from paraclaw.expr import TIME, mono_decode
    from paraclaw.grammar import parse
    walks, inside, sizes = [], [], []
    real_walk, real_generate = jets._euler_terms, claws.generate_ansatz

    def walk(terms):
        walks.append(bool(inside))
        return real_walk(terms)

    def generate(*args):
        inside.append(True)
        try:
            densities, characteristics = real_generate(*args)
        finally:
            inside.pop()
        sizes.append(sum(1 for (m,) in densities if TIME not in dict(mono_decode(m))))
        return densities, characteristics

    def no_euler_operator(*args):
        raise AssertionError("the search called euler_operator")

    for module in (claws, jets):
        monkeypatch.setattr(module, "_euler_terms", walk)
        monkeypatch.setattr(module, "euler_operator", no_euler_operator, raising=False)
    monkeypatch.setattr(claws, "generate_ansatz", generate)
    for text in (source, other):
        walks.clear()
        sizes.clear()
        laws = claws.find_conservation_laws(parse(text).equation(), claws.AnsatzSpec(*spec),
                                            force=True)
        assert laws or text == other
        assert len(sizes) == 1 and walks == [True] * sizes[0]


def test_pure_u_search_takes_no_euler_walk(monkeypatch):
    # the pure-u columns' characteristics k t^b x^a u^(k-1) are read off,
    # and the assembly takes them as they are: heat_2d at 2/4/3 finds its
    # 10 laws with no raw Euler walk and no euler_operator
    from paraclaw import claws, jets
    from paraclaw.grammar import parse

    def no_walk(*args):
        raise AssertionError("a pure-u search took an Euler walk")

    for module in (claws, jets):
        monkeypatch.setattr(module, "_euler_terms", no_walk)
        monkeypatch.setattr(module, "euler_operator", no_walk, raising=False)
    eq = parse("n=2; u_t = u_11 + u_22").equation()
    assert len(claws.find_conservation_laws(eq, claws.AnsatzSpec(2, 4, 3))) == 10


@pytest.mark.parametrize("source, spec, outcome, checks", [
    ("n=2; u_t = u_11 + u_22", (2, 4, 3), 10, ["find_conservation_laws"]),
    ("n=2; u_t = u_11 + u_22 + (u_11 + u_22)^2", (2, 4, 3), 0, ["find_conservation_laws"]),
    ("n=2; u_t = (u_11 + u_22)/(1 + x1^2)", (2, 4, 3), "NotPolynomialIn",
     ["find_conservation_laws"]),
    ("n=2; u_t = (u_11 + u_22)/(1 + x1^2)", (2, 0, 3), 0, ["find_conservation_laws"]),
    ("n=2; u_t = u_1", (2, 2, 1), 30, ["find_conservation_laws", "generate_ansatz"]),
], ids=["pure-u", "no-law", "rational", "rational-jet-degree-0", "plan"])
def test_search_checks_its_size_once(monkeypatch, source, spec, outcome, checks):
    # the search checks its size once, before it picks a route: on the
    # pure-u, no-law and rational routes that is the only check; on the
    # plan route generate_ansatz, a public entry point, checks again
    from paraclaw import claws
    from paraclaw.expr import NotPolynomialIn
    from paraclaw.grammar import parse
    callers = []
    real_check = claws.check_ansatz_size

    def check(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_check(*args)

    monkeypatch.setattr(claws, "check_ansatz_size", check)
    eq = parse(source).equation()
    if outcome == "NotPolynomialIn":
        with pytest.raises(NotPolynomialIn):
            claws.find_conservation_laws(eq, claws.AnsatzSpec(*spec))
    else:
        assert len(claws.find_conservation_laws(eq, claws.AnsatzSpec(*spec))) == outcome
    assert callers == checks


@pytest.mark.parametrize("source, spec", PLAN_ROUTE, ids=PLAN_ROUTE_IDS)
def test_search_back_substitutes_once(monkeypatch, source, spec):
    # the pivot pass and the law loop only test independence, forward only;
    # the one null space, the determining system's, back-substitutes its
    # echelon once
    from paraclaw import claws, linalg
    from paraclaw.grammar import parse
    callers = []
    reduced = linalg.Echelon.reduced

    def recording(self):
        callers.append((sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name))
        return reduced(self)

    monkeypatch.setattr(linalg.Echelon, "reduced", recording)
    laws = claws.find_conservation_laws(parse(source).equation(), claws.AnsatzSpec(*spec),
                                        force=True)
    assert laws
    assert callers == [("nullspace", "solve_exact")]


TRACED_SEARCH = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import paraclaw
from paraclaw import claws
from paraclaw.grammar import parse
from tracing import Tracer, layer_metrics
tracer = Tracer()
tracer.install()
claws.find_conservation_laws(parse(sys.argv[3]).equation(),
                             claws.AnsatzSpec(*json.loads(sys.argv[4])), force=True)
print(json.dumps(layer_metrics([{"spans": tracer.spans, "scale": 1.0}], tracer.counts, 1)))
"""


@pytest.mark.parametrize("spec, size", [((2, 1, 1, True), 28), ((2, 0, 0, True), 1)],
                         ids=["heat_2d-2/1/1", "one-monomial"])
def test_tracer_sizes_the_search_stages(spec, size):
    # the tracer reads the ansatz size as len(r[1]) of generate_ansatz, the
    # row count as r.num_equations of the assembly and the null dimension
    # as len(r) of solve_exact; 2/0/0 has one monomial, so a bare list of
    # columns would break r[1]; both searches run on the heat_2d equation
    # with unsafe_order, which takes the plan route
    from paraclaw import claws
    from paraclaw.grammar import parse
    from util import recorded_search
    source = "n=2; u_t = u_11 + u_22"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_SEARCH, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "perfbench"), source, json.dumps(spec)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    calls, outcome = recorded_search(parse(source).equation(), claws.AnsatzSpec(*spec), True)
    assert len(calls["generate_ansatz"][1][1]) == size
    assert metrics["claws.ansatz_unknowns"] == size
    assert metrics["claws.determining_rows"] \
        == calls["assemble_determining_system"][1].num_equations
    assert metrics["claws.null_dim"] == len(calls["solve_exact"][1]) == len(outcome[1])


def test_search_memos_and_rows_are_untracked():
    # a monomial is an int and the search's term dicts hold int
    # coefficients, so the collector tracks no ansatz monomial and no row
    # or key of the determining system
    import gc
    from paraclaw import claws
    from paraclaw.grammar import parse
    from util import t_free
    eq, spec = parse("n=2; u_t = u_11 + u_22 + u*u_1").equation(), claws.AnsatzSpec(2, 2, 1)
    densities, characteristics = claws.generate_ansatz(eq.n, spec)
    system = claws.assemble_determining_system(eq, densities, characteristics)
    assert claws.find_conservation_laws(eq, spec)
    gc.collect()
    monomials = t_free(densities)
    assert len(monomials) == 84 and not any(map(gc.is_tracked, monomials))
    assert system.rows and not any(map(gc.is_tracked, system.rows))
    assert not any(map(gc.is_tracked, system.keys))


TRACKED_AFTER_SEARCH = """
import gc, sys
sys.path[:0] = sys.argv[1:2]
from paraclaw import claws
from paraclaw.grammar import parse
eq = parse("n=2; u_t = u_11 + u_22").equation()
gc.collect()
before = len(gc.get_objects())
assert len(claws.find_conservation_laws(eq, claws.AnsatzSpec(2, 4, 3))) == 10
gc.collect()
print(len(gc.get_objects()) - before)
"""


@pytest.mark.parametrize("hash_seed", ["0", "123"])
def test_benchmark_reports_match_the_pinned_digest(hash_seed):
    # the exit code, stdout and stderr of the 990 benchmark requests (3
    # workloads x seeds 1, 2, 1000003 x passes 0-2) hash to the digest
    # pinned in tests/golden/report_digest.txt, under either hash seed; a
    # change that alters a report byte re-pins it on purpose
    proc = subprocess.run(
        [sys.executable, "-B", os.path.join(ROOT, "tests", "report_digest.py"),
         "--expect", os.path.join(ROOT, "tests", "golden", "report_digest.txt")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONHASHSEED": hash_seed})
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cold_search_leaves_few_tracked_objects():
    # a cold heat_2d 2/4/3 search left 268 k objects for the collector to
    # walk when monomials were tuples of (Symbol, exponent) pairs; ints are
    # never tracked, so less than a tenth of that remains
    proc = subprocess.run([sys.executable, "-B", "-c", TRACKED_AFTER_SEARCH,
                           os.path.join(ROOT, "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 10_000


@pytest.mark.parametrize("source, spec", [
    ("n=1; u_t = u_xx + u*u_x", (2, 2, 1)),
    ("n=2; u_t = u_11 + u_22", (2, 1, 1)),
    ("n=1; u_t = u_x", (2, 2, 0)),
], ids=["burgers", "heat_2d", "transport"])
def test_one_homotopy_core_and_no_replacement_table(monkeypatch, source, spec):
    from paraclaw import claws, jets
    from paraclaw.expr import Expr, jet_var
    from paraclaw.grammar import parse
    assert claws._homotopy is jets._homotopy
    calls = []
    real = jets._homotopy

    def counting(*args):
        calls.append(args)
        return real(*args)

    def no_table(*args):
        raise AssertionError("a search built a replacement table")

    for module in (claws, jets):
        monkeypatch.setattr(module, "_homotopy", counting)
        monkeypatch.setattr(module, "build_replacement_table", no_table)
    u = Expr.symbol(jet_var())
    jets.invert_divergence(u * Expr.symbol(jet_var((1,))), 1)
    assert len(calls) == 1
    laws = claws.find_conservation_laws(parse(source).equation(), claws.AnsatzSpec(*spec))
    assert laws
    assert len(calls) == 1 + len(laws)


def test_one_term_kernel():
    # raw term dicts are summed, multiplied, shifted and cleared, and
    # monomials decoded, by the kernel of paraclaw.expr alone; the other
    # modules bind its functions
    from paraclaw import claws, expr, jets
    assert jets._add_terms is expr._add_terms
    assert claws._add_product is expr._add_product
    assert jets._fields is expr._fields and claws._shifted is expr._shifted
    kernel = {"_add_terms", "_add_product", "_fields", "_shifted", "_cleared"}
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py") and name != "expr.py":
            with open(os.path.join(PACKAGE_DIR, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            defined = {node.name for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
            assert not defined & kernel, f"{name} defines {sorted(defined & kernel)}"


def test_one_prolongation_memo():
    # D_J f is memoized by prefix in one class, jets.Prolonged: the
    # replacement table of Exprs and the search's memo of term dicts
    from paraclaw import claws, jets
    from paraclaw.parabolic import EvolutionEquation
    from util import uxx
    assert type(jets.build_replacement_table(EvolutionEquation(1, uxx))) is jets.Prolonged
    assert type(claws._prolongations({0: 1})) is jets.Prolonged
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py") and name != "jets.py":
            with open(os.path.join(PACKAGE_DIR, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            assert not any(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                           and node.name == "__missing__" for node in ast.walk(tree)), \
                f"{name} defines __missing__"



def _functools_memo(node: ast.AST, module_names: set, imported: dict) -> str | None:
    """"cache" or "lru_cache" when the node names that function of
    functools, through the module (``module_names`` are its aliases) or a
    ``from functools import`` (``imported`` maps alias to name)."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id in module_names:
        name = node.attr
    elif isinstance(node, ast.Name):
        name = imported.get(node.id)
    else:
        return None
    return name if name in ("cache", "lru_cache") else None


def _is_max_terms(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "MAX_TERMS" \
        or isinstance(node, ast.Attribute) and node.attr == "MAX_TERMS"


def test_every_memo_is_bounded_by_max_terms():
    # one size budget: every functools.lru_cache in the package is called
    # with maxsize MAX_TERMS, and the unbounded functools.cache is not used
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE_DIR, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        module_names = {alias.asname or alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.Import)
                        for alias in node.names if alias.name == "functools"}
        imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "functools"
                    for alias in node.names}
        bounded = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                maxsize = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                if len(maxsize) == 1 and _is_max_terms(maxsize[0]):
                    bounded.add(id(node.func))
        for node in ast.walk(tree):
            memo = _functools_memo(node, module_names, imported)
            assert memo != "cache", f"{name}:{node.lineno} uses the unbounded functools.cache"
            assert memo != "lru_cache" or id(node) in bounded, \
                f"{name}:{node.lineno} has an lru_cache whose maxsize is not MAX_TERMS"


def test_no_function_clears_a_module_level_name():
    # a process-wide memo is an lru_cache, which the bound check above
    # reads, not a module-level dict that a function empties at a bound
    cleared = []
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE_DIR, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        module_level = {target.id for node in tree.body
                        if isinstance(node, (ast.Assign, ast.AnnAssign))
                        for target in (node.targets if isinstance(node, ast.Assign)
                                       else [node.target])
                        if isinstance(target, ast.Name)}
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cleared += [f"{name}:{node.lineno} {node.func.value.id}.clear()"
                        for node in ast.walk(function)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "clear" and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in module_level]
    assert cleared == []


# Each paraclaw module and the modules directly below it; a module may import
# any module below it, directly or through others, and nothing else.  Only
# __init__ and __main__, which are above everything, may import cli.
LAYERS = {
    "expr": (), "linalg": (),
    "jets": ("expr", "linalg"),
    "parabolic": ("jets",),
    "claws": ("parabolic",),
    "grammar": ("parabolic",),
    "cli": ("grammar", "claws"),
}
PACKAGE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "paraclaw")


def _below(module: str) -> set:
    below = set()
    for lower in LAYERS[module]:
        below |= {lower} | _below(lower)
    return below


def _is_type_checking(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
        or isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _paraclaw_imports(tree: ast.AST) -> set:
    """The paraclaw modules a module imports, outside ``if TYPE_CHECKING:``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if _is_type_checking(node):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "paraclaw":
                continue
            inner = parts[1:] if node.level == 0 else [p for p in parts if p]
            found |= {inner[0]} if inner else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("paraclaw.")}
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_imports_run_one_way():
    modules = sorted(name[:-3] for name in os.listdir(PACKAGE_DIR) if name.endswith(".py"))
    assert set(modules) - {"__init__", "__main__"} <= set(LAYERS), "module without a layer"
    for module in modules:
        with open(os.path.join(PACKAGE_DIR, f"{module}.py"), encoding="utf-8") as fh:
            imported = _paraclaw_imports(ast.parse(fh.read()))
        if module in ("__init__", "__main__"):
            assert imported <= set(LAYERS), module
            continue
        assert imported <= _below(module), \
            f"{module} imports {sorted(imported - _below(module))}, which are not below it"


def test_every_module_is_imported_by_the_package():
    # a module that only tests import belongs in tests/
    imports = {}
    for name in os.listdir(PACKAGE_DIR):
        if name.endswith(".py") and name != "__main__.py":
            with open(os.path.join(PACKAGE_DIR, name), encoding="utf-8") as fh:
                imports[name[:-3]] = _paraclaw_imports(ast.parse(fh.read()))
    reached, stack = set(), ["__init__"]
    while stack:
        for module in imports[stack.pop()] - reached:
            reached.add(module)
            stack.append(module)
    assert set(imports) - {"__init__"} <= reached, \
        f"{sorted(set(imports) - {'__init__'} - reached)} not imported by paraclaw"


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)


def _references(tree: ast.AST) -> set:
    """The names a file refers to, outside any ``__all__``: loaded names,
    attributes, and the parts of string constants that are dotted names
    (``monkeypatch.setattr`` targets, the tracer's tables)."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if _is_all(node):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
            found |= set(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_exported_name_is_read():
    # a name in __all__ that no module, test or benchmark reads is dead
    # surface; __init__ only re-exports, so its imports are not reads
    read, exported = set(), {}
    for folder in ("src", "tests", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, folder)):
            for name in files:
                path = os.path.join(dirpath, name)
                if not name.endswith(".py") or path == os.path.join(PACKAGE_DIR, "__init__.py"):
                    continue
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                read |= _references(tree)
                if dirpath == PACKAGE_DIR:
                    for node in ast.walk(tree):
                        if _is_all(node):
                            exported[name[:-3]] = [item.value for item in node.value.elts]
    unread = [f"{module}.{name}" for module, names in sorted(exported.items())
              for name in names if name not in read]
    assert not unread, f"exported and never read: {unread}"


def _names_read(tree: ast.AST) -> set:
    """The names a module reads: in its code, in its string annotations and
    in its ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotation = getattr(node, "returns" if isinstance(node, ast.FunctionDef)
                             else "annotation", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                      if isinstance(n, ast.Name)}
        if _is_all(node):
            names |= {item.value for item in node.value.elts}
    return names


def test_imports_are_used():
    # an import that a deletion left behind is caught; __init__ imports only
    # to re-export, so it is not checked
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(PACKAGE_DIR, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        unused = imported - _names_read(tree)
        assert not unused, f"{name} imports {sorted(unused)} and never uses them"


def test_all_names_resolve():
    # a stale __all__ entry breaks ``from paraclaw.<module> import *``
    for module in ["paraclaw"] + [f"paraclaw.{name}" for name in sorted(LAYERS)]:
        target = importlib.import_module(module)
        missing = [name for name in getattr(target, "__all__", ()) if not hasattr(target, name)]
        assert not missing, f"{module}.__all__ names {missing}"


def test_import_loads_only_what_the_package_runs():
    # a bare interpreter (-S: no site hooks) that imports the CLI loads no
    # dataclasses, typing or what dataclasses pulls in; a module the
    # interpreter loads before (linecache, from CPython 3.13) is not counted
    unwanted = ("dataclasses", "inspect", "ast", "dis", "tokenize", "linecache", "copy",
                "typing")
    code = ("import sys; before = set(sys.modules); import paraclaw.cli; "
            f"print([m for m in {unwanted!r} if m in sys.modules and m not in before])")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.path.dirname(PACKAGE_DIR)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_runs_without_argparse(tmp_path):
    # a well-formed request, in each argv form the benchmark sends and as
    # dims takes it, is read without argparse; -h then imports it, so the
    # two readers are apart
    heat = tmp_path / "heat.pde"
    heat.write_text("n=2; u_t = u_11 + u_22")
    requests = [["classify", str(heat)], ["classify", str(heat), "--symbolic"],
                ["verify", str(heat), "--density=u", "--flux=-u_1", "--flux=-u_2"],
                ["claws", str(heat), "--order", "2", "--jet-degree", "1", "--base-degree", "1"],
                ["dims", "-n", "1"]]
    code = ("import contextlib, io, json, sys\n"
            "from paraclaw import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "    before = 'argparse' in sys.modules\n"
            "    try:\n"
            "        cli.main(['-h'])\n"
            "    except SystemExit as exc:\n"
            "        codes.append(exc.code)\n"
            "print(codes, before, 'argparse' in sys.modules)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(requests)], capture_output=True, text=True,
        timeout=60, env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.path.dirname(PACKAGE_DIR)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0, 0, 0] False True\n"
