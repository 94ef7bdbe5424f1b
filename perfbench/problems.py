"""Seeded problem generator for the perfbench workloads.

``generate(workload, seed, pass_index)`` returns the requests of one pass as
plain dicts: the problem-file text, the extra command-line arguments and
the expectations that follow from how the problem was built.  The same
arguments give byte-identical problems (``digest`` proves it), and no
request repeats within a pass, so a cache kept across calls cannot hit by
replay.  Coefficients come from small rationals so that a problem's cost
depends on its family, not on coefficient growth.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

WORKLOADS = ("flux-heavy", "wide-ansatz", "classify-verify")

POS = tuple(Fraction(p) for p in ("1", "2", "3", "1/2", "3/2", "2/3"))
REF_CANDIDATES = (0, 1, -1, 2, -2, 3, -3)


def _signed(rng):
    return rng.choice(POS) * rng.choice((1, -1))


def _sum(terms) -> str:
    """Grammar text for sum(c * text); ``text`` must bind tighter than *."""
    out = ""
    for c, text in terms:
        c = Fraction(c)
        if not c:
            continue
        piece = text if abs(c) == 1 else f"{abs(c)}*{text}"
        if not out:
            out = piece if c > 0 else f"-{piece}"
        else:
            out += (" + " if c > 0 else " - ") + piece
    return out or "0"


def _file(n, G, refs=()) -> str:
    parts = [f"n={n}", f"u_t = {G}"]
    parts += [f"ref {name} = {value}" for name, value in refs if value]
    return "; ".join(parts)


def _hess(n, i) -> str:
    return "u_xx" if n == 1 else f"u_{i}{i}"


def _first_ref(predicate) -> int:
    return next(r for r in REF_CANDIDATES if predicate(r))


# ---------------------------------------------------------------------------
# Families: each returns (problem-file text, coefficients)
# ---------------------------------------------------------------------------

def det_family(rng, zero_ok=True):
    """``zero_ok`` lets a or b be 0 (det_hessian_flow is a = b = 0); the
    symbolic residue is ten times cheaper then, so symbolic requests keep
    a, b > 0 to give every pass the same cost."""
    pool = (0,) + POS if zero_ok else POS
    a, b = rng.choice(pool), rng.choice(pool)
    c = _signed(rng)
    r11 = _first_ref(lambda r: b + c * r > 0)
    r22 = _first_ref(lambda r: a + c * r > 0)
    G = _sum([(a, "u_11"), (b, "u_22"), (c, "(u_11*u_22 - u_12^2)")])
    return (_file(2, G, [("u_11", r11), ("u_22", r22)]),
            {"a": str(a), "b": str(b), "c": str(c)})


def det3_family(rng):
    a = [rng.choice(POS) for _ in range(3)]
    c = _signed(rng)
    G = _sum([(ai, _hess(3, i)) for i, ai in enumerate(a, 1)]
             + [(c, "(u_11*u_22 - u_12^2)")])
    return _file(3, G), {"a": [str(x) for x in a], "c": str(c)}


def heat_family(rng, n):
    a = [rng.choice(POS) for _ in range(n)]
    G = _sum([(ai, _hess(n, i)) for i, ai in enumerate(a, 1)])
    return _file(n, G), {"a": [str(x) for x in a]}


def lap2_family(rng, n):
    a, c = rng.choice(POS), _signed(rng)
    lap = "(" + " + ".join(_hess(n, i) for i in range(1, n + 1)) + ")"
    return _file(n, _sum([(a, lap), (c, lap + "^2")])), {"a": str(a), "c": str(c)}


def quartic_family(rng, n):
    a = [rng.choice(POS) for _ in range(n)]
    c = _signed(rng)
    G = _sum([(ai, _hess(n, i)) for i, ai in enumerate(a, 1)] + [(c, "u_11^2")])
    return _file(n, G), {"a": [str(x) for x in a], "c": str(c)}


def qdiff_family(rng):
    a, c = rng.choice(POS), _signed(rng)
    return _file(1, _sum([(a, "u_xx"), (c, "u_xx^2")])), {"a": str(a), "c": str(c)}


def n1affine_family(rng):
    a, b, d = rng.choice(POS), _signed(rng), _signed(rng)
    G = _sum([(a, "u_xx"), (b, "u*u_x"), (d, "u_x^2")])
    return _file(1, G), {"a": str(a), "b": str(b), "d": str(d)}


def burgers_family(rng):
    a, b = rng.choice(POS), _signed(rng)
    return _file(1, _sum([(a, "u_xx"), (b, "u*u_x")])), {"a": str(a), "b": str(b)}


def kpz_family(rng):
    a, b = rng.choice(POS), _signed(rng)
    return _file(1, _sum([(a, "u_xx"), (b, "u_x^2")])), {"a": str(a), "b": str(b)}


def porous_family(rng):
    a = _signed(rng)
    r = rng.choice((1, 2)) * (1 if a > 0 else -1)
    return _file(1, _sum([(a, "u*u_xx")]), [("u", r)]), {"a": str(a), "r": r}


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

def _claws(family, source_coeffs, spec):
    source, coeffs = source_coeffs
    order, jet_degree, base_degree = spec
    return {"command": "claws", "family": family, "source": source,
            "coeffs": coeffs, "base_degree": base_degree,
            "args": ["--order", str(order), "--jet-degree", str(jet_degree),
                     "--base-degree", str(base_degree)]}


def _classify(family, source_coeffs, symbolic=False):
    source, coeffs = source_coeffs
    return {"command": "classify", "family": family, "source": source,
            "coeffs": coeffs, "args": ["--symbolic"] if symbolic else []}


def _verify(family, source, coeffs, density, fluxes, characteristic, verified):
    args = [f"--density={density}"] + [f"--flux={f}" for f in fluxes]
    return {"command": "verify", "family": family, "source": source,
            "coeffs": coeffs, "args": args,
            "expect": {"verified": verified, "characteristic": characteristic}}


def _perturb(rng, fluxes):
    k = rng.randrange(len(fluxes))
    out = list(fluxes)
    out[k] = f"{out[k]} + {rng.choice(POS)}*u"
    return out


def heat_law(rng, n, perturbed):
    """Density f*u for a polynomial solution f of f_t + sum a_i f_ii = 0."""
    source, coeffs = heat_family(rng, n)
    a = [Fraction(x) for x in coeffs["a"]]
    xs = ["x"] if n == 1 else [f"x{i}" for i in range(1, n + 1)]
    us = ["u_x"] if n == 1 else [f"u_{i}" for i in range(1, n + 1)]
    i = rng.randrange(n)
    grad = ["0"] * n
    shape = rng.choice(("x", "x^2", "xx") if n > 1 else ("1", "x", "x^2"))
    if shape == "1":
        f = "1"
    elif shape == "x":
        f, grad[i] = xs[i], "1"
    elif shape == "x^2":
        f, grad[i] = f"{xs[i]}^2 - {2 * a[i]}*t", f"2*{xs[i]}"
    else:
        j = (i + 1 + rng.randrange(n - 1)) % n
        f, grad[i], grad[j] = f"{xs[i]}*{xs[j]}", xs[j], xs[i]
    fluxes = [f"-({ak})*(({f})*{uk} - ({gk})*u)"
              for ak, uk, gk in zip(a, us, grad)]
    if perturbed:
        fluxes = _perturb(rng, fluxes)
    return _verify("heat_law", source, coeffs, f"({f})*u", fluxes, f,
                   not perturbed)


def burgers_law(rng, perturbed):
    source, coeffs = burgers_family(rng)
    a, b = coeffs["a"], coeffs["b"]
    fluxes = [f"-(({a})*u_x + ({b})/2*u^2)"]
    if perturbed:
        fluxes = _perturb(rng, fluxes)
    return _verify("burgers_law", source, coeffs, "u", fluxes, "1", not perturbed)


def det_law(rng, perturbed):
    source, coeffs = det_family(rng)
    a, b, c = f"({coeffs['a']})", f"({coeffs['b']})", f"({coeffs['c']})"
    which = rng.choice(("1", "x1", "x2"))
    if which == "1":
        fluxes = [f"-({a}*u_1 + {c}*u_1*u_22)", f"-({b}*u_2 - {c}*u_1*u_12)"]
    elif which == "x1":
        fluxes = [f"-({a}*(x1*u_1 - u) + {c}*(x1*u_1*u_22 + 1/2*u_2^2))",
                  f"-({b}*x1*u_2 - {c}*(x1*u_1*u_12 + u_1*u_2))"]
    else:
        fluxes = [f"-({a}*x2*u_1 - {c}*(x2*u_2*u_12 + u_1*u_2))",
                  f"-({b}*(x2*u_2 - u) + {c}*(x2*u_2*u_11 + 1/2*u_1^2))"]
    if perturbed:
        fluxes = _perturb(rng, fluxes)
    density = "u" if which == "1" else f"{which}*u"
    return _verify("det_law", source, coeffs, density, fluxes, which, not perturbed)


# Each entry: (count per pass, request builder).
PASSES = {
    "flux-heavy": (
        (2, lambda rng: _claws("det", det_family(rng), (2, 1, 1))),
        (1, lambda rng: _claws("heat", heat_family(rng, 3), (2, 1, 2))),
    ),
    "wide-ansatz": (
        (1, lambda rng: _claws("lap2", lap2_family(rng, 2), (2, 2, 1))),
        (1, lambda rng: _claws("quartic", quartic_family(rng, 2), (2, 2, 1))),
        (1, lambda rng: _claws("qdiff", qdiff_family(rng), (2, 3, 2))),
        (1, lambda rng: _claws("heat", heat_family(rng, 2), (2, 2, 1))),
        (1, lambda rng: _claws("burgers", burgers_family(rng), (2, 3, 1))),
        (1, lambda rng: _claws("kpz", kpz_family(rng), (2, 2, 2))),
        (1, lambda rng: _claws("porous", porous_family(rng), (2, 2, 2))),
    ),
    "classify-verify": (
        (5, lambda rng: _classify("n1affine", n1affine_family(rng))),
        (5, lambda rng: _classify("qdiff", qdiff_family(rng))),
        (4, lambda rng: _classify("det", det_family(rng))),
        (3, lambda rng: _classify("lap2", lap2_family(rng, 2))),
        (3, lambda rng: _classify("quartic", quartic_family(rng, 2))),
        (4, lambda rng: _classify("det3", det3_family(rng))),
        (3, lambda rng: _classify("lap2", lap2_family(rng, 3))),
        (3, lambda rng: _classify("quartic", quartic_family(rng, 3))),
        (8, lambda rng: _classify("det", det_family(rng, zero_ok=False), symbolic=True)),
        (7, lambda rng: _classify("lap2", lap2_family(rng, 2), symbolic=True)),
        (20, lambda rng: heat_law(rng, rng.randint(1, 3), False)),
        (8, lambda rng: burgers_law(rng, False)),
        (12, lambda rng: det_law(rng, False)),
        (7, lambda rng: heat_law(rng, rng.randint(1, 3), True)),
        (3, lambda rng: burgers_law(rng, True)),
        (5, lambda rng: det_law(rng, True)),
    ),
}


def generate(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The requests of one pass; distinct, in a seeded order."""
    rng = random.Random(f"perfbench:{workload}:{seed}:{pass_index}")
    requests, seen = [], set()
    for count, build in PASSES[workload]:
        for _ in range(count):
            for _attempt in range(100):
                req = build(rng)
                key = (req["command"], req["source"], tuple(req["args"]))
                if key not in seen:
                    break
            else:
                raise RuntimeError(f"cannot draw a fresh {req['family']} request")
            seen.add(key)
            requests.append(req)
    if workload == "classify-verify":
        rng.shuffle(requests)
    for k, req in enumerate(requests):
        req["id"] = f"p{k:03d}-{req['family']}"
    return requests


def digest(requests: list[dict]) -> str:
    return hashlib.sha256(
        json.dumps(requests, sort_keys=True).encode()).hexdigest()


def write_files(requests: list[dict], workdir: str) -> list[str]:
    """Write each problem file; returns the paths in request order."""
    os.makedirs(workdir, exist_ok=True)
    paths = []
    for req in requests:
        path = os.path.join(workdir, f"{req['id']}.pde")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(req["source"] + "\n")
        paths.append(path)
    return paths


def argv(request: dict, path: str) -> list[str]:
    return [request["command"], path] + request["args"]
