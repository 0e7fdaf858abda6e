"""Property tests of the exact algebra over random couplings, dimensions and states.

Derandomized, so every run draws the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from zonekit.algebra import ZonePolynomial, apply_rep, apply_zeeman, inner_product, norm
from zonekit.params import PhysParams
from zonekit.zones import project_to_zone

PROPERTY = settings(derandomize=True, deadline=None, max_examples=50, database=None)

coeff_st = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@st.composite
def polynomials(draw, params, max_degree=4, max_terms=4):
    """A random polynomial of total degree <= max_degree in the m = k/2 coordinates."""
    coeffs = {}
    for _ in range(draw(st.integers(1, max_terms))):
        key, budget = [], max_degree
        for _ in range(params.m):
            p = draw(st.integers(0, budget))
            v = draw(st.integers(0, budget - p))
            budget -= p + v
            key.append((p, v))
        coeffs[tuple(key)] = draw(coeff_st)
    return ZonePolynomial(coeffs, params)


@st.composite
def params_and_polys(draw, count, max_degree=4):
    params = draw(st.builds(PhysParams, lam=st.floats(0.3, 3.0), k=st.sampled_from([2, 4]),
                            charge_sign=st.sampled_from([1, -1])))
    return (params, *(draw(polynomials(params, max_degree)) for _ in range(count)))


@PROPERTY
@given(params_and_polys(2), st.booleans())
def test_zeeman_is_hermitian(drawn, field_term):
    _, f, g = drawn
    hf, hg = apply_zeeman(f, field_term), apply_zeeman(g, field_term)
    lhs, rhs = inner_product(hf, g), inner_product(f, hg)
    scale = norm(hf) * norm(g) + norm(f) * norm(hg)
    assert abs(lhs - rhs) <= 1e-12 * scale


@PROPERTY
@given(params_and_polys(1, max_degree=5))
def test_zone_projections_are_idempotent_and_orthogonal(drawn):
    _, f = drawn
    size = norm(f)
    for a in (0, 1, 2):
        pa = project_to_zone(f, a)
        assert norm(project_to_zone(pa, a) - pa) <= 1e-10 * size
        for b in (0, 1, 2):
            if b != a:
                assert norm(project_to_zone(pa, b)) <= 1e-10 * size


@PROPERTY
@given(params_and_polys(2, max_degree=5), st.integers(0, 2))
def test_zone_projection_is_self_adjoint(drawn, a):
    _, f, g = drawn
    lhs = inner_product(project_to_zone(f, a), g)
    rhs = inner_product(f, project_to_zone(g, a))
    assert abs(lhs - rhs) <= 1e-12 * norm(f) * norm(g)


@PROPERTY
@given(params_and_polys(1, max_degree=6))
def test_heisenberg_commutator(drawn):
    params, f = drawn
    for i in range(params.m):
        for j in range(params.m):
            comm = apply_rep("zbar", apply_rep("z", f, j), i) \
                - apply_rep("z", apply_rep("zbar", f, i), j)
            expected = params.lam * f if i == j else ZonePolynomial({}, params)
            assert norm(comm - expected) <= 1e-12 * params.lam * norm(f)


@PROPERTY
@given(params_and_polys(1))
def test_json_round_trip_is_exact(drawn):
    params, f = drawn
    back = ZonePolynomial.from_json(f.to_json(), params)
    assert back.coefficients == f.coefficients
