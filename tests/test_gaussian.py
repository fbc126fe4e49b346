import numpy as np
import pytest

from pseudodyn import (GaussianCoefficients, PairCoefficients, QuadraticPolynomial,
                       apply_first_order, apply_second_order, evaluate,
                       gradient_at, log_evaluate)


def random_gaussian(n, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    a = (rng.uniform(-scale, scale, (n, n))
         + 1j * rng.uniform(-scale, scale, (n, n)))
    b = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return GaussianCoefficients(a, b, c)


def random_points(n, count, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-1, 1, (count, n)) + 1j * rng.uniform(-1, 1, (count, n)))


def fd_derivative(g, u, k, step=1e-5):
    e = np.zeros(len(u), dtype=complex)
    e[k] = step
    return (evaluate(g, u + e) - evaluate(g, u - e)) / (2 * step)


def fd_second_derivative(g, u, k, kp, step=1e-4):
    ek = np.zeros(len(u), dtype=complex)
    ekp = np.zeros(len(u), dtype=complex)
    ek[k] = step
    ekp[kp] = step
    return (evaluate(g, u + ek + ekp) - evaluate(g, u + ek - ekp)
            - evaluate(g, u - ek + ekp) + evaluate(g, u - ek - ekp)) / (4 * step**2)


def test_evaluate_empty_exponent_is_one():
    g = GaussianCoefficients(np.zeros((3, 3)), np.zeros(3), 0.0)
    assert evaluate(g, np.ones(3)) == pytest.approx(1.0)


def test_evaluate_single_linear_term():
    b = np.zeros(4, dtype=complex)
    b[1] = 1.0
    g = GaussianCoefficients(np.zeros((4, 4)), b, 0.0)
    u = np.zeros(4, dtype=complex)
    u[1] = 2.0
    assert evaluate(g, u) == pytest.approx(np.exp(2.0))


def test_evaluate_symmetric_pair_counted_twice():
    a = np.zeros((4, 4), dtype=complex)
    a[0, 3] = a[3, 0] = 0.3 + 0.1j
    g = GaussianCoefficients(a, np.zeros(4), 0.0)
    u = np.zeros(4, dtype=complex)
    u[0] = u[3] = 1.0
    assert evaluate(g, u) == pytest.approx(np.exp(2 * (0.3 + 0.1j)))


def test_asymmetric_input_symmetrized_exactly():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    g = GaussianCoefficients(a, np.zeros(2))
    assert np.array_equal(g.a, g.a.T)
    assert g.a[0, 1] == 0.5


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        GaussianCoefficients(np.zeros((3, 3)), np.zeros(2))
    g = random_gaussian(3, 0)
    with pytest.raises(ValueError):
        log_evaluate(g, np.zeros(4, dtype=complex))


def test_evaluate_overflow_guard():
    g = GaussianCoefficients(np.zeros((1, 1)), np.array([800.0 + 0j]), 0.0)
    with pytest.raises(OverflowError):
        evaluate(g, np.array([1.0 + 0j]))
    assert log_evaluate(g, np.array([1.0 + 0j])) == pytest.approx(800.0)


def test_gradient_at_origin_is_b():
    g = random_gaussian(5, 11)
    grad = gradient_at(g, np.zeros(5, dtype=complex))
    assert np.allclose(grad, g.b * np.exp(g.c), rtol=1e-14)


def test_gradient_of_constant_is_zero():
    g = GaussianCoefficients(np.zeros((3, 3)), np.zeros(3), 0.7)
    assert np.allclose(gradient_at(g, np.ones(3)), 0.0)


def test_gradient_matches_finite_differences():
    worst = 0.0
    for trial in range(16):
        g = random_gaussian(6, 100 + trial)
        u = random_points(6, 1, 200 + trial)[0]
        analytic = gradient_at(g, u)
        fd = np.array([fd_derivative(g, u, k) for k in range(6)])
        denom = np.maximum(np.abs(analytic), 1e-8 * np.max(np.abs(analytic)))
        worst = max(worst, np.max(np.abs(fd - analytic) / denom))
    assert worst < 1e-6


def test_first_order_on_constant_exponent():
    n = 4
    g = GaussianCoefficients(np.zeros((n, n)), np.zeros(n), 0.0)
    rng = np.random.default_rng(5)
    shift = rng.uniform(-1, 1, (n, n)) + 0j
    shift = 0.5 * (shift + shift.T)
    poly = apply_first_order(g, np.ones(n), shift)
    assert np.allclose(poly.q2, shift)
    assert np.allclose(poly.q1, 0.0)
    assert poly.q0 == 0.0


def test_first_order_shift_only_reproduces_pairing():
    g = random_gaussian(4, 3)
    pairing = np.eye(4, dtype=complex)[::-1]
    poly = apply_first_order(g, np.zeros(4), -pairing)
    assert np.allclose(poly.q2, -pairing)
    assert np.allclose(poly.q1, 0.0)


def test_first_order_matches_fd_operator():
    # L Phi at u = sum_k u_k w_k dPhi/du_k + (u^T s u) Phi, via differences
    n = 4
    g = random_gaussian(n, 21)
    rng = np.random.default_rng(22)
    w = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    s = rng.uniform(-1, 1, (n, n)) + 0j
    s = 0.5 * (s + s.T)
    poly = apply_first_order(g, w, s)
    for u in random_points(n, 8, 23):
        phi = evaluate(g, u)
        applied = sum(u[k] * w[k] * fd_derivative(g, u, k) for k in range(n))
        applied += (u @ s @ u) * phi
        predicted = poly.value_at(u) * phi
        assert abs(applied - predicted) / max(abs(predicted), 1e-12) < 1e-5


def test_second_order_on_constant_functional():
    n = 3
    g = GaussianCoefficients(np.zeros((n, n)), np.zeros(n), 0.0)
    q = np.diag([1.0, 2.0, 3.0]).astype(complex)
    c = np.eye(n, dtype=complex)
    poly = apply_second_order(g, c, q)
    assert np.allclose(poly.q2, q)
    assert np.allclose(poly.q1, 0.0)
    assert poly.q0 == 0.0


def test_second_order_pure_linear_exponent():
    n = 3
    rng = np.random.default_rng(31)
    b = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    g = GaussianCoefficients(np.zeros((n, n)), b, 0.0)
    c = rng.uniform(-1, 1, (n, n)) + 0j
    c = 0.5 * (c + c.T)
    poly = apply_second_order(g, c)
    assert np.allclose(poly.q2, 0.0)
    assert np.allclose(poly.q1, 0.0)
    assert poly.q0 == pytest.approx(complex(b @ c @ b))


def test_second_order_matches_fd_operator():
    n = 3
    g = random_gaussian(n, 41, scale=0.3)
    rng = np.random.default_rng(42)
    c = rng.uniform(-0.5, 0.5, (n, n)) + 1j * rng.uniform(-0.5, 0.5, (n, n))
    c = 0.5 * (c + c.T)
    q = rng.uniform(-0.5, 0.5, (n, n)) + 0j
    q = 0.5 * (q + q.T)
    poly = apply_second_order(g, c, q)
    for u in random_points(n, 6, 43):
        phi = evaluate(g, u)
        applied = (u @ q @ u) * phi
        for k in range(n):
            for kp in range(n):
                applied += c[k, kp] * fd_second_derivative(g, u, k, kp)
        predicted = poly.value_at(u) * phi
        assert abs(applied - predicted) / max(abs(predicted), 1e-12) < 1e-5


def test_polynomial_subtraction_and_value():
    p1 = QuadraticPolynomial(np.eye(2, dtype=complex), np.ones(2), 1.0)
    p2 = QuadraticPolynomial(np.zeros((2, 2)), np.zeros(2), 0.5)
    d = p1 - p2
    u = np.array([1.0, 2.0], dtype=complex)
    assert d.value_at(u) == pytest.approx((1 + 4) + 3 + 0.5)


def test_pair_coefficients_checks_shapes_and_freezes_arrays():
    neg = np.array([1, 0, 2])
    with pytest.raises(ValueError, match="must be equal 1-D shapes"):
        PairCoefficients(np.ones(3), np.ones(2), 0.0, neg)
    g = PairCoefficients(np.ones(3), np.zeros(3), 1, neg)
    assert not g.a_pair.flags.writeable and not g.b.flags.writeable
    assert type(g.c) is complex
