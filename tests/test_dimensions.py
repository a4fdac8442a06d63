"""Closed-form dimension and bound calculators."""

from fractions import Fraction

import pytest

from qskein.dimensions import (
    Marked3ManifoldDescriptor,
    SurfaceDescriptor,
    basis_box,
    euler_characteristic,
    lambda_bounds,
    localized_dimension,
    module_bound,
    r_of_surface,
    spanning_count_formula,
    spanning_set,
)

BIGON = SurfaceDescriptor(genus=0, punctures=0, boundary=2)


def test_euler_characteristic_conventions():
    assert euler_characteristic(BIGON) == 1
    assert euler_characteristic(SurfaceDescriptor(1, 1, 0)) == -1
    assert euler_characteristic(SurfaceDescriptor(0, 3, 0)) == -1
    assert euler_characteristic(SurfaceDescriptor(2, 0, 0)) == -2
    assert euler_characteristic(SurfaceDescriptor(1, 0, 1)) == -1


def test_r_values():
    assert r_of_surface(BIGON) == 1
    assert r_of_surface(SurfaceDescriptor(1, 1, 0)) == 1
    assert r_of_surface(SurfaceDescriptor(0, 3, 0)) == 1
    assert r_of_surface(SurfaceDescriptor(1, 0, 1)) == 2
    assert r_of_surface(SurfaceDescriptor(0, 1, 1)) == 1
    assert r_of_surface(SurfaceDescriptor(0, 2, 1)) == 2


def test_localized_dimension_pins():
    assert localized_dimension(BIGON, 3) == 27
    assert localized_dimension(SurfaceDescriptor(1, 1, 0), 3) == 27
    assert localized_dimension(SurfaceDescriptor(0, 3, 0), 3) == 27
    assert localized_dimension(BIGON, 5) == 125


def test_localized_dimension_closed_formula():
    # closed surfaces: N^(3r) = N^(6g - 6 + 3p)
    for g in range(3):
        for p in range(4):
            s = SurfaceDescriptor(g, p, 0)
            if euler_characteristic(s) >= 0:
                continue
            assert localized_dimension(s, 3) == 3 ** (6 * g - 6 + 3 * p)


def test_localized_dimension_preconditions():
    with pytest.raises(ValueError):
        localized_dimension(BIGON, 4)
    with pytest.raises(ValueError):
        localized_dimension(SurfaceDescriptor(1, 0, 0), 3)  # chi = 0
    with pytest.raises(ValueError):
        localized_dimension(SurfaceDescriptor(0, 0, 0), 3)  # sphere


def test_spanning_count_formula_values():
    assert spanning_count_formula(1) == 1
    assert spanning_count_formula(3) == 40
    assert spanning_count_formula(5) == 195
    with pytest.raises(ValueError):
        spanning_count_formula(2)


@pytest.mark.parametrize("order", [1, 3, 5, 7, 9])
def test_formula_matches_enumeration(order):
    assert spanning_count_formula(order) == len(spanning_set(order))


def test_box_cardinality_matches_localized_dimension():
    for order in (3, 5):
        assert localized_dimension(BIGON, order) == len(basis_box(order))


def test_lambda_bounds_with_boundary():
    assert lambda_bounds(BIGON, 3) == (27, 40)
    two = SurfaceDescriptor(0, 2, 1)  # r = 2
    assert lambda_bounds(two, 3) == (27 ** 2, 40 ** 2)


def test_lambda_bounds_closed_with_punctures():
    assert lambda_bounds(SurfaceDescriptor(1, 1, 0), 3) == (27, 27)
    s = SurfaceDescriptor(1, 2, 0)
    assert lambda_bounds(s, 3) == (3 ** 6, 3 ** (2 ** 3 - 1))


def test_lambda_bounds_closed_no_punctures():
    s = SurfaceDescriptor(2, 0, 0)
    assert lambda_bounds(s, 3) == (3 ** 6, 3 ** (2 ** 4 - 1))
    with pytest.raises(ValueError):
        lambda_bounds(SurfaceDescriptor(1, 0, 0), 3)  # torus, chi = 0


def test_lambda_lower_equals_localized_dimension():
    for s in (BIGON, SurfaceDescriptor(1, 1, 0), SurfaceDescriptor(0, 4, 0),
              SurfaceDescriptor(2, 0, 0), SurfaceDescriptor(1, 0, 2)):
        lower, upper = lambda_bounds(s, 3)
        assert lower == localized_dimension(s, 3)
        assert lower <= upper


def test_module_bound_values():
    assert module_bound(Marked3ManifoldDescriptor(0, 0), 3) == 1
    assert module_bound(Marked3ManifoldDescriptor(2, 0), 3) == 27
    assert module_bound(Marked3ManifoldDescriptor(0, 1), 3) == 1
    assert module_bound(Marked3ManifoldDescriptor(1, 1), 3) == 40 ** 2
    assert module_bound(Marked3ManifoldDescriptor(0, 2), 3) == 40


def test_module_bound_monotone():
    for order in (3, 5):
        for k in range(0, 7):
            values = [
                module_bound(Marked3ManifoldDescriptor(g, k), order)
                for g in range(7)
            ]
            assert values == sorted(values)
        for g in range(0, 7):
            values = [
                module_bound(Marked3ManifoldDescriptor(g, k), order)
                for k in range(1, 7)
            ]
            assert values == sorted(values)


def test_module_bound_no_overflow():
    big = module_bound(Marked3ManifoldDescriptor(20, 0), 3)
    assert big == 3 ** (2 ** 20 - 1)


def test_oversized_count_refused_before_computing():
    with pytest.raises(ValueError):
        module_bound(Marked3ManifoldDescriptor(22, 0), 3)
    with pytest.raises(ValueError):
        lambda_bounds(SurfaceDescriptor(10**9, 1, 0), 3)
    # a power of 1 cannot grow, however large its exponent
    assert module_bound(Marked3ManifoldDescriptor(40, 0), 1) == 1


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SurfaceDescriptor(-1, 0, 0)
    with pytest.raises(ValueError):
        Marked3ManifoldDescriptor(0, -2)


NON_INTEGERS = pytest.mark.parametrize(
    "value", [0.5, 3.0, "3", True, Fraction(3)], ids=["float", "integral-float", "string", "bool", "fraction"]
)


@NON_INTEGERS
def test_dimensions_states_the_integer_rule_of_linear(value):
    """``dimensions`` imports nothing of the package, so it restates
    ``linear.integer``; both copies refuse the same inputs."""
    from qskein import dimensions, linear

    for rule in (dimensions._integer, linear.integer):
        with pytest.raises(TypeError, match="expected an integer"):
            rule(value)
        assert rule(3) == 3


@pytest.mark.parametrize("value", [0.5, 3.0, True, Fraction(3)], ids=["float", "integral-float", "bool", "fraction"])
def test_dimension_inputs_refuse_non_integers(value):
    for make in (
        lambda: SurfaceDescriptor(value, 0, 2),
        lambda: SurfaceDescriptor(0, 0, value),
        lambda: Marked3ManifoldDescriptor(value, 2),
        lambda: localized_dimension(BIGON, value),
        lambda: module_bound(Marked3ManifoldDescriptor(1, 2), value),
    ):
        with pytest.raises(TypeError, match="expected an integer"):
            make()


@pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize(
    "name",
    ["basis_box", "spanning_wing", "spanning_set",
     "iter_basis_box", "iter_spanning_wing", "iter_spanning_set"],
)
def test_box_sizes_follow_the_integer_rule(name, value):
    from qskein import dimensions

    with pytest.raises(TypeError, match="expected an integer, got"):
        getattr(dimensions, name)(value)


@pytest.mark.parametrize(
    "name",
    ["basis_box", "spanning_wing", "spanning_set",
     "iter_basis_box", "iter_spanning_wing", "iter_spanning_set"],
)
def test_box_sizes_are_natural_numbers(name):
    """A negative size is refused, not read as an empty box."""
    from qskein import dimensions

    assert list(getattr(dimensions, name)(0)) == []
    with pytest.raises(ValueError, match="^box size must be a natural number, got -1$"):
        getattr(dimensions, name)(-1)
