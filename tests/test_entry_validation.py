"""Every public entry rejects a bad input with the same typed error.

Inputs are validated where they enter the library (``DualPair``, the
public bounds, the public methods of ``SeparableFunction``,
``ResolventProblem``, ``prox``, ``bregman_prox`` and the operators'
``apply``); the private helpers behind them take checked arrays. Each
entry below is called with a NaN, +inf or -inf entry, an empty array, a
2-D array, a vector of the wrong dimension and a point outside the
domain, and must raise exactly the error it is pinned to here, or return
where it is pinned to return.
"""

import math
import warnings

import numpy as np
import pytest

from haraux import bounds, functions, gauges, operators, solvers
from haraux.core import DimensionMismatchError, DomainError, DualPair

BAD = ("nan", "inf", "-inf", "empty", "2d", "wrong_dim", "outside")


def _bad(kind, good, outside):
    """The vector ``good`` spoilt in the way ``kind`` names; ``outside``
    is a point of the right dimension outside the entry's domain."""
    good = np.asarray(good, dtype=float)
    if kind in ("nan", "inf", "-inf"):
        v = good.copy()
        v[0] = float(kind)
        return v
    if kind == "empty":
        return np.array([])
    if kind == "2d":
        return good.reshape(1, -1)
    if kind == "wrong_dim":
        return np.append(good, good[0])
    return np.asarray(outside, dtype=float)


BURG = functions.burg(1)
BS = functions.boltzmann_shannon(1)
FD = functions.fermi_dirac(1)
A_BURG = operators.SubdifferentialOp(BURG)
A_BS = operators.SubdifferentialOp(BS)
ID1 = operators.identity(1)
MIXED = functions.SeparableFunction(
    [BURG.parts[0], FD.parts[0], functions.quadratic(1).parts[0]])


def _vector_entries():
    """(name, call(v), good, outside): entries taking one vector v."""
    ok3 = [0.5, 0.25, -1.0]
    return [
        ("DualPair.x", lambda v: DualPair(v, [-0.5]), [1.0], [-1.0]),
        ("DualPair.u_star", lambda v: DualPair([1.0], v), [-0.5], [0.5]),
        ("SeparableFunction.__call__", BURG, [1.0], [-1.0]),
        ("SeparableFunction.conjugate_eval", BURG.conjugate_eval, [-0.5], [0.5]),
        ("SeparableFunction.in_interior", BURG.in_interior, [1.0], [-1.0]),
        ("SeparableFunction.gradient", BURG.gradient, [1.0], [-1.0]),
        ("SeparableFunction.gradient/mixed", MIXED.gradient, ok3, [0.5, 1.5, -1.0]),
        ("SeparableFunction.grad_conj", BURG.grad_conj, [-0.5], [0.5]),
        ("SeparableFunction.grad_conj/mixed", MIXED.grad_conj, [-2.0, 0.3, 4.0],
         [-2.0, 0.3, float("nan")]),
        ("SeparableFunction.bregman.x", lambda v: BURG.bregman(v, [2.0]), [1.0], [-1.0]),
        ("SeparableFunction.bregman.y", lambda v: BURG.bregman([1.0], v), [2.0], [-1.0]),
        ("SeparableFunction.fenchel_young.x", lambda v: BURG.fenchel_young(v, [-0.5]),
         [1.0], [-1.0]),
        ("SeparableFunction.fenchel_young.u_star",
         lambda v: BURG.fenchel_young([1.0], v), [-0.5], [0.5]),
        ("SeparableFunction.fenchel_young/mixed",
         lambda v: MIXED.fenchel_young(v, [-2.0, 0.3, 4.0]), ok3, [0.5, 1.5, -1.0]),
        ("ResolventProblem.rhs", lambda v: solvers.solve_resolvent(
            solvers.ResolventProblem(A_BURG, A_BURG, 1.0, v)), [-0.5], [0.5]),
        ("ResolventProblem.rhs/identity", lambda v: solvers.solve_resolvent(
            solvers.ResolventProblem(ID1, A_BURG, 1.0, v)), [0.5], [0.5]),
        ("prox/burg", lambda v: solvers.prox(BURG, 1.0, v), [0.5], [-3.0]),
        ("prox/fermi_dirac", lambda v: solvers.prox(FD, 1.0, v), [0.5], [-3.0]),
        ("bregman_prox", lambda v: solvers.bregman_prox(BURG, BURG, 1.0, v), [-0.5], [0.5]),
        ("GradientOp.apply", A_BURG.apply, [1.0], [-1.0]),
        ("DiagonalOp.apply", ID1.apply, [1.0], [-1.0]),
    ]


def _bound_entries():
    """(name, call(p)): the public bounds, which take their vectors in a
    DualPair."""
    FY = [(m, (lambda m: lambda p: bounds.fy_bound_dispatch(BURG, None, p, 1.0, m))(m))
          for m in bounds.FY_METHODS]
    return [
        ("bound_pairing", lambda p: bounds.bound_pairing(ID1, A_BURG, p, 1.0)),
        ("bound_modulus", lambda p: bounds.bound_modulus(ID1, A_BURG, p, 1.0)),
        ("bound_bregman/burg", lambda p: bounds.bound_bregman(BURG, A_BURG, p, 1.0)),
        ("bound_bregman/fermi_dirac_bs", lambda p: bounds.bound_bregman(FD, A_BS, p, 1.0)),
        ("bound_bregman/generic", lambda p: bounds.bound_bregman(BS, A_BS, p, 1.0)),
        ("bound_legendre_self", lambda p: bounds.bound_legendre_self(BURG, p, 1.0)),
        ("bound_carlier_haraux", lambda p: bounds.bound_carlier_haraux(A_BURG, p, 1.0)),
        ("bound_carlier_fy", lambda p: bounds.bound_carlier_fy(BURG, p, 1.0)),
        ("exact_fenchel_young", lambda p: bounds.exact_fenchel_young(BURG, p)),
    ] + [("fy_bound_dispatch/" + m, call) for m, call in FY]


# The pairs of the bound entries: a good point of dom burg, and points
# outside dom burg (x) and making grad phi*((grad phi(x) + u*)/2) leave
# the conjugate domain (u*). The Fermi-Dirac pair needs x in (0, 1).
_BOUND_POINTS = {"x": ([0.3], [-0.5]), "outside_x": ([-1.0], [-0.5]),
                 "outside_u": ([0.3], [5.0])}


def _cases():
    cases = {}
    for name, call, good, outside in _vector_entries():
        for kind in BAD:
            cases[f"{name}:{kind}"] = (call, _bad(kind, good, outside))
    for name, call in _bound_entries():
        x, u = _BOUND_POINTS["x"]
        for slot, other in (("x", u), ("u_star", x)):
            for kind in BAD[:5]:
                bad = _bad(kind, x if slot == "x" else u, None)
                pair = (bad, other) if slot == "x" else (other, bad)
                cases[f"{name}:{slot}:{kind}"] = (
                    (lambda call, pair: lambda: call(DualPair(*pair)))(call, pair), None)
        p2 = DualPair(x * 2, u * 2)
        cases[f"{name}:wrong_dim"] = ((lambda call: lambda: call(p2))(call), None)
        for where in ("outside_x", "outside_u"):
            p = DualPair(*_BOUND_POINTS[where])
            cases[f"{name}:{where}"] = ((lambda call, p: lambda: call(p))(call, p), None)
    return cases


CASES = _cases()


def outcome(case_id):
    """The exception type name and message of a case, or None when it
    returns."""
    call, v = CASES[case_id]
    try:
        call(v) if v is not None else call()
    except Exception as exc:  # the outcome is what is compared
        return type(exc).__name__, str(exc)
    return None


_FINITE = ("ValueError", "vector entries must be finite")
_EMPTY = ("ValueError", "vectors must have positive dimension")
_DIM1 = ("DomainError", "point of dimension 2 for function of dimension 1")
_DIM3 = ("DomainError", "point of dimension 4 for function of dimension 3")
_GRAD = ("DomainError", "gradient requires a point strictly inside the domain")


def _shape(rows, cols):
    return ("ValueError", f"expected a 1-D vector, got shape ({rows}, {cols})")


def _vector_expected(name, dim, wrong_dim, outside):
    out = {f"{name}:{k}": _FINITE for k in ("nan", "inf", "-inf")}
    out[f"{name}:empty"] = _EMPTY
    out[f"{name}:2d"] = _shape(1, dim)
    out[f"{name}:wrong_dim"] = wrong_dim
    out[f"{name}:outside"] = outside
    return out


def _bound_expected(name, wrong_dim, outside_x, outside_u):
    out = {}
    for slot in ("x", "u_star"):
        out.update({f"{name}:{slot}:{k}": _FINITE for k in ("nan", "inf", "-inf")})
        out[f"{name}:{slot}:empty"] = _EMPTY
        out[f"{name}:{slot}:2d"] = _shape(1, 1)
    out[f"{name}:wrong_dim"] = wrong_dim
    out[f"{name}:outside_x"] = outside_x
    out[f"{name}:outside_u"] = outside_u
    return out


_DUAL_DIM = ("DimensionMismatchError", "x has dimension 2, u* has dimension 1")
_NO_ROOT_UP = ("NoSolutionError", "no sign change found toward the upper boundary")
_DIAG_DIM = ("DomainError", "dimension mismatch in diagonal operator")
_W_A_DIM = ("ValueError", "dimensions of W, A and rhs must agree")
_X_INSIDE = ("DomainError", "x must lie strictly inside dom f")
_CONJ = ("DomainError", "0.8333333333333333 outside the conjugate domain of burg")

EXPECTED = {}
for _name, _dim, _wrong, _out in (
    ("DualPair.x", 1, _DUAL_DIM, None),
    ("DualPair.u_star", 1, ("DimensionMismatchError", "x has dimension 1, u* has dimension 2"),
     None),
    ("SeparableFunction.__call__", 1, _DIM1, None),
    ("SeparableFunction.conjugate_eval", 1, _DIM1, None),
    ("SeparableFunction.in_interior", 1, _DIM1, None),
    ("SeparableFunction.gradient", 1, _DIM1, _GRAD),
    ("SeparableFunction.gradient/mixed", 3, _DIM3, _GRAD),
    ("SeparableFunction.grad_conj", 1, _DIM1,
     ("DomainError", "0.5 outside the conjugate domain of burg")),
    ("SeparableFunction.grad_conj/mixed", 3, _DIM3, _FINITE),
    ("SeparableFunction.bregman.x", 1, _DIM1, None),
    ("SeparableFunction.bregman.y", 1, _DIM1, None),
    ("SeparableFunction.fenchel_young.x", 1, _DIM1, None),
    ("SeparableFunction.fenchel_young.u_star", 1, _DIM1, None),
    ("SeparableFunction.fenchel_young/mixed", 3, _DIM3, None),
    ("ResolventProblem.rhs", 1,
_W_A_DIM, _NO_ROOT_UP),
    ("ResolventProblem.rhs/identity", 1, _W_A_DIM, None),
    ("prox/burg", 1, ("DomainError", "dimension mismatch in prox"), None),
    ("prox/fermi_dirac", 1, ("DomainError", "dimension mismatch in prox"), None),
    ("bregman_prox", 1, ("DomainError", "dimension mismatch in bregman_prox"), _NO_ROOT_UP),
    ("GradientOp.apply", 1, _DIM1, _GRAD),
    ("DiagonalOp.apply", 1, _DIAG_DIM, None),
):
    EXPECTED.update(_vector_expected(_name, _dim, _wrong, _out))
for _name, _wrong, _out_x, _out_u in (
    ("bound_pairing", _DIAG_DIM, None, None),
    ("bound_modulus", _DIAG_DIM, None, None),
    ("bound_bregman/burg", _DIM1, _X_INSIDE,
     ("NoSolutionError", "the Burg self-pair resolvent has no solution "
                         "where 1 - gamma*x*u* <= 0")),
    ("bound_bregman/fermi_dirac_bs", _DIM1, _X_INSIDE, None),
    ("bound_bregman/generic", _DIM1, _X_INSIDE, None),
    ("bound_legendre_self", _DIM1, ("DomainError", "x must lie strictly inside dom phi"),
     _CONJ),
    ("bound_carlier_haraux", _W_A_DIM, None, None),
    ("bound_carlier_fy", ("DomainError", "dimension mismatch in prox"), None, None),
    ("exact_fenchel_young", _DIM1, None, None),
    ("fy_bound_dispatch/pairing", _W_A_DIM, None, None),
    ("fy_bound_dispatch/strong", _W_A_DIM, None, None),
    ("fy_bound_dispatch/bregman", _DIM1, _X_INSIDE,
     ("NoSolutionError", "the Burg self-pair resolvent has no solution "
                         "where 1 - gamma*x*u* <= 0")),
    ("fy_bound_dispatch/legendre_self", _DIM1,
     ("DomainError", "x must lie strictly inside dom phi"), _CONJ),
    ("fy_bound_dispatch/carlier_fy", ("DomainError", "dimension mismatch in prox"), None, None),
):
    EXPECTED.update(_bound_expected(_name, _wrong, _out_x, _out_u))


def test_every_case_has_an_expected_outcome():
    assert sorted(CASES) == sorted(EXPECTED)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_entry_rejects_as_pinned(case_id):
    assert outcome(case_id) == EXPECTED[case_id]


def test_error_types_keep_their_hierarchy():
    # Callers catch the dimension and domain errors as ValueError.
    assert issubclass(DimensionMismatchError, ValueError)
    assert issubclass(DomainError, ValueError)


# Every entry that takes a step gamma, at a good point of its domain.
_P = DualPair([0.3], [-0.5])
_X, _U = np.array([[0.3], [1.0]]), np.array([[-0.5], [-1.0]])
_Q = functions.quadratic(1)
_GAMMA_ENTRIES = {
    "bound_pairing": lambda g: bounds.bound_pairing(ID1, A_BURG, _P, g),
    "bound_modulus": lambda g: bounds.bound_modulus(ID1, A_BURG, _P, g),
    "bound_bregman/burg": lambda g: bounds.bound_bregman(BURG, A_BURG, _P, g),
    "bound_bregman/fermi_dirac_bs": lambda g: bounds.bound_bregman(FD, A_BS, _P, g),
    "bound_bregman/generic": lambda g: bounds.bound_bregman(BS, A_BS, _P, g),
    "bound_legendre_self": lambda g: bounds.bound_legendre_self(BURG, _P, g),
    "bound_carlier_haraux": lambda g: bounds.bound_carlier_haraux(A_BURG, _P, g),
    "bound_carlier_fy": lambda g: bounds.bound_carlier_fy(BURG, _P, g),
    "burg_self_bound_closed": lambda g: bounds.burg_self_bound_closed([1.0], [-0.5], g),
    "fermi_dirac_bound_closed": lambda g: bounds.fermi_dirac_bound_closed([0.5], [0.5], g),
    "fermi_dirac_zeta": lambda g: bounds.fermi_dirac_zeta([0.5], [0.5], g),
    **{f"fy_bound_dispatch/{m}": (lambda m: lambda g: bounds.fy_bound_dispatch(
        BURG, None, _P, g, m))(m) for m in bounds.FY_METHODS},
    **{f"_fy_rows/{m}": (lambda m: lambda g: bounds._fy_rows(BURG, _X, _U, g, m))(m)
       for m in bounds.FY_METHODS},
    "prox": lambda g: solvers.prox(BURG, g, [1.0]),
    "bregman_prox": lambda g: solvers.bregman_prox(BURG, BURG, g, [-1.0]),
    "ResolventProblem": lambda g: solvers.ResolventProblem(ID1, A_BURG, g, [1.0]),
    "warped_resolvent": lambda g: solvers.warped_resolvent(ID1, ID1, ID1, g, [0.0]),
    "InclusionInstance": lambda g: gauges.InclusionInstance(A=ID1, B=ID1, W=ID1, gamma=g),
    "KTInstance": lambda g: gauges.KTInstance(C=ID1, D_inv=ID1, L=[[1.0]], gamma=g,
                                              W_X=ID1, W_Ystar=ID1),
    "fr_gauge_bound": lambda g: gauges.fr_gauge_bound(_Q, _Q, _Q, _Q, [[1.0]], g,
                                                      [1.0], [0.5]),
}


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, 0.0, -0.5, -1.0])
@pytest.mark.parametrize("entry", sorted(_GAMMA_ENTRIES))
def test_gamma_must_be_positive_and_finite(entry, gamma):
    # One ValueError, raised before any arithmetic with gamma can warn.
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="gamma must be positive and finite") as info:
            _GAMMA_ENTRIES[entry](gamma)
    assert type(info.value) is ValueError
