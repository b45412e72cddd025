"""Every Fenchel-Young method at points next to the open edges of the
catalog functions: each call gives a bound at most the exact value plus
slack, or a typed error that the CLI maps to its exit code."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from haraux import bounds, cli, functions
from haraux.core import DomainError, DualPair
from haraux.solvers import ConvergenceError, NoSolutionError

# (function, open edge) for every finite end of a catalog domain.
EDGES = [(name, end) for inner, ends in (("burg", (0.0,)), ("boltzmann_shannon", (0.0,)),
                                         ("fermi_dirac", (0.0, 1.0)))
         for name in (inner, "quad_plus:" + inner) for end in ends]
SLACK = 1e-9
TYPED = (NoSolutionError, ConvergenceError, DomainError)

points = st.tuples(
    st.sampled_from(EDGES),
    st.floats(-300.0, -1.0),  # log10 of the distance to the edge
    st.floats(-3.0, 3.0),  # log10 |u*|
    st.sampled_from([-1.0, 1.0]),
)


def _point(draw):
    (name, end), log_delta, log_u, sign = draw
    delta = 10.0 ** log_delta
    return name, end + delta if end == 0.0 else end - delta, sign * 10.0 ** log_u


@settings(max_examples=300, deadline=None)
@given(points)
def test_every_method_bounds_or_raises_a_typed_error(draw):
    name, x, u = _point(draw)
    phi, p = functions.from_name(name), DualPair([x], [u])
    try:
        exact = bounds.exact_fenchel_young(phi, p)
    except TYPED:
        exact = math.inf  # phi*(u*) is not computable in floats: only the sign is checked
    for method in bounds.FY_METHODS:
        try:
            b = bounds.fy_bound_dispatch(phi, None, p, 1.0, method)
        except TYPED:
            continue
        assert 0.0 <= b.value <= exact + SLACK * (1.0 + abs(exact)), (method, b.value, exact)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(points, st.sampled_from(bounds.FY_METHODS))
def test_the_cli_exits_with_the_code_of_the_error(capsys, draw, method):
    capsys.readouterr()
    name, x, u = _point(draw)
    phi, p = functions.from_name(name), DualPair([x], [u])
    try:
        # The library calls of the CLI's row: the bound and the exact value.
        bounds.fy_bound_dispatch(phi, None, p, 1.0, method)
        bounds.exact_fenchel_young(phi, p)
        expected = cli.EXIT_OK
    except DomainError:
        expected = cli.EXIT_CONFIG
    except (NoSolutionError, ConvergenceError):
        expected = cli.EXIT_SOLVER
    code = cli.main(["bound", "--phi", name, "--method", method, "--point", f"{x!r};{u!r}"])
    out, err = capsys.readouterr()
    assert code == expected
    if code != cli.EXIT_OK:
        assert out == "" and err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("name, x, u, method, code", [
    ("fermi_dirac", 1.0 - 1e-12, -1e3, "pairing", cli.EXIT_SOLVER),  # root underflows
    ("burg", 1e-310, -1.0, "legendre_self", cli.EXIT_CONFIG),  # grad burg(x) overflows
    ("boltzmann_shannon", 1e-300, -700.0, "pairing", cli.EXIT_OK),  # root near 1e-304
])
def test_points_next_to_an_edge_through_the_cli(capsys, name, x, u, method, code):
    assert cli.main(["bound", "--phi", name, "--method", method,
                     "--point", f"{x!r};{u!r}"]) == code
    capsys.readouterr()
