"""Corpus of evolution equations, used by the cross-validation and property
suites.  Sources are in the problem-file grammar, so the corpus also
exercises the parser."""

from __future__ import annotations

from dataclasses import dataclass

from paraclaw.grammar import ProblemFile, parse
from paraclaw.parabolic import EvolutionEquation


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    source: str

    def problem(self) -> ProblemFile:
        return parse(self.source)

    def equation(self) -> EvolutionEquation:
        return self.problem().equation()


CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry("heat", "n=1; u_t = u_xx"),
    CorpusEntry("burgers", "n=1; u_t = u_xx + u*u_x"),
    CorpusEntry("heat_2d", "n=2; u_t = u_11 + u_22"),
    CorpusEntry("det_hessian_flow",
                "n=2; u_t = u_11*u_22 - u_12^2; ref u_11 = 1; ref u_22 = 1"),
    CorpusEntry("quadratic_diffusion", "n=1; u_t = u_xx + u_xx^2"),
    CorpusEntry("laplacian_squared",
                "n=2; u_t = u_11 + u_22 + (u_11 + u_22)^2"),
    CorpusEntry("anisotropic_quartic", "n=2; u_t = u_11 + u_22 + u_11^2"),
    CorpusEntry("heat_plus_det",
                "n=2; u_t = u_11 + u_22 + u_11*u_22 - u_12^2"),
    CorpusEntry("porous_medium", "n=1; u_t = u*u_xx; ref u = 1"),
    CorpusEntry("kpz_polynomial", "n=1; u_t = u_xx + u_x^2"),
    CorpusEntry("heat_reaction", "n=1; u_t = u_xx + u"),
    CorpusEntry("convection_diffusion", "n=1; u_t = u_xx + u_x"),
    CorpusEntry("forced_heat", "n=1; u_t = u_xx + x"),
)


def by_name(name: str) -> CorpusEntry:
    for entry in CORPUS:
        if entry.name == name:
            return entry
    raise KeyError(name)
