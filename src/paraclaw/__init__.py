"""paraclaw: conservation laws and Monge-Ampere classification for scalar
evolutionary parabolic equations u_t = G(x, t, u, grad u, Hess u).

Everything is exact: rational-function symbolics, rational linear algebra,
and decidable zero tests end to end.  See the README for the CLI and the
problem-file grammar.
"""

from .expr import (
    AUX, BASE, JET, DivisionByZeroExpr, Expr,
    NotPolynomialIn, Symbol, aux_var, base_var, jet_var,
)
from .jets import (
    NotInDivergenceImage, OrderOverflow, Prolonged, TimeJetPresent,
    build_replacement_table,
    deprolongation_dimension, euler_operator, invert_divergence,
    parabolic_system_dimension, reduce_to_spatial, tableau_dimension,
    total_derivative,
)
from .parabolic import (
    EvolutionEquation, MAReport, Parabolicity, PreconditionSpatialDim,
    SingularSymbol, ma_classify,
    ma_traceless_residue, parabolicity_check, quartic_form, symbol_form,
)
from .claws import (
    AnsatzSpec, AnsatzTooLarge, ConservationLaw, DeterminingSystem,
    FluxReconstructionFailed, InvariantViolation,
    NotParabolicEquation, assemble_determining_system, cross_validate_ma,
    find_conservation_laws, generate_ansatz, jacobi_potential_order,
    solve_exact, verify,
)
from .grammar import (
    IndexOutOfRange, ParseError, ProblemFile, TimeDerivativeOnRHS, parse, parse_expression,
)
from .cli import main

__version__ = "0.1.0"
