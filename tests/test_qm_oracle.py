import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from pseudodyn import qm_oracle
from pseudodyn import (BoundaryFactors, QMGrid, compare_kernels,
                       cross_coefficient_solver, ground_state,
                       kernel_matrix_genfunc, kernel_matrix_solver,
                       propagate_driven)
from pseudodyn.cli import qm_drive_from_csv
from pseudodyn.qm_oracle import _EIGEN_TOL, check_band, checked_drive, step_count


@pytest.fixture(scope="module")
def grid():
    return QMGrid(q_min=-12.0, q_max=12.0, n_points=512, dt=1e-3, omega=1.0)


@pytest.fixture(scope="module")
def vacuum(grid):
    return ground_state(grid)


@pytest.fixture(scope="module")
def boundary(grid, vacuum):
    return BoundaryFactors(left=vacuum, right=vacuum.copy())


@pytest.fixture(scope="module")
def grids(grid, boundary):
    """(grid, vacuum boundary) at hbar 1 and, on the same box, at hbar 0.5:
    a narrower vacuum, sources coupled as (i/h) j q and endpoint transforms
    e^{+-i p q / h}."""
    half = QMGrid(q_min=-12.0, q_max=12.0, n_points=512, dt=1e-3, omega=1.0,
                  hbar=0.5)
    return [(grid, boundary), (half, BoundaryFactors.vacuum(half))]


def test_grid_validation():
    with pytest.raises(ValueError):
        QMGrid(1.0, -1.0, 512, 1e-3, 1.0)
    with pytest.raises(ValueError):
        QMGrid(-1.0, 1.0, 512, 1e-3, -1.0)
    with pytest.raises(ValueError):
        QMGrid(-1.0, 1.0, 512, 0.5, 1.0)  # dt > 0.01/omega
    with pytest.raises(ValueError, match="dt"):
        QMGrid(-1.0, 1.0, 512, np.nan, 1.0)
    with pytest.raises(ValueError, match="omega"):
        QMGrid(-1.0, 1.0, 512, 1e-3, np.nan)
    with pytest.raises(ValueError, match="q_max"):
        QMGrid(np.nan, 1.0, 512, 1e-3, 1.0)


def test_grid_refuses_infinite_bounds_width_and_hbar():
    # each would leave NaN in q or in the vacuum's eigen-residual
    for args, name in (((-np.inf, 12.0, 1024, 1e-3, 1.0), "q_min"),
                       ((-12.0, np.inf, 1024, 1e-3, 1.0), "q_max"),
                       ((-1e308, 1e308, 1024, 1e-3, 1.0), "q_max - q_min"),
                       ((-12.0, 12.0, 1024, 1e-3, 1.0, np.inf), "hbar")):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite"):
            QMGrid(*args)


def test_ground_state_value_at_origin(grid, vacuum):
    at0 = vacuum[np.argmin(np.abs(grid.q))]
    assert at0 == pytest.approx(np.pi**-0.25, abs=1e-9)


def test_ground_state_second_moment(grid, vacuum):
    q2 = np.sum(np.abs(vacuum)**2 * grid.q**2) * grid.dq
    assert q2 == pytest.approx(0.5, abs=1e-9)


def test_ground_state_normalized(grid, vacuum):
    assert grid.norm(vacuum) == pytest.approx(1.0, abs=1e-12)


def test_free_evolution_eigenphase(grid, vacuum):
    psi = propagate_driven(vacuum.astype(complex), grid, 0.0, 1.0)
    assert np.max(np.abs(psi - np.exp(-0.5j) * vacuum)) < 1e-6


def test_unitarity_with_drive(grid, vacuum):
    tt = np.linspace(0.0, 1.0, 1001)
    psi = propagate_driven(vacuum.astype(complex), grid, 0.0, 1.0,
                           0.7 * np.sin(3.0 * tt))
    assert grid.norm(psi) == pytest.approx(1.0, abs=1e-10)


def test_dt_refinement_second_order(vacuum):
    errs = []
    for dt in (4e-3, 2e-3):
        g = QMGrid(-12.0, 12.0, 512, dt, 1.0)
        psi = propagate_driven(vacuum.astype(complex), g, 0.0, 1.0)
        errs.append(np.max(np.abs(psi - np.exp(-0.5j) * vacuum)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


def test_adiabatic_constant_drive_displacement():
    f = 0.5
    g = QMGrid(-10.0, 10.0, 512, 5e-3, 1.0)
    psi0 = ground_state(g).astype(complex)
    t_ramp, t_end = 20.0, 30.0
    tt = np.linspace(0.0, t_end, 6001)
    drive = f * np.where(tt < t_ramp, np.sin(0.5 * np.pi * tt / t_ramp)**2, 1.0)
    psi = propagate_driven(psi0, g, 0.0, t_end, drive)
    q_mean = np.sum(np.abs(psi)**2 * g.q) * g.dq
    assert q_mean == pytest.approx(f / 1.0**2, abs=1e-2)


def test_faint_row_leak_detected_beside_bright_row(grid, vacuum):
    # each row is judged against its own peak: a faint row swinging out to
    # q ~ 8 reaches the edge of [-12, 12] although the whole batch's edge
    # stays far below the bright vacuum row's peak
    bright = vacuum.astype(complex)
    faint = 1e-6 * vacuum * np.exp(-8j * grid.q)
    propagate_driven(bright, grid, 0.0, 2.0)
    with pytest.raises(RuntimeError, match="boundary leak"):
        propagate_driven(np.stack([bright, faint]), grid, 0.0, 2.0)


def test_boundary_leak_detected():
    g = QMGrid(-4.0, 4.0, 256, 1e-3, 1.0)
    # the vacuum profile kicked hard, swings to q ~ 3 (the box is too small
    # for ground_state's eigen-residual gate, so the profile is written out)
    psi0 = np.exp(-0.5 * g.q**2 - 3j * g.q)
    with pytest.raises(RuntimeError, match="boundary leak"):
        propagate_driven(psi0, g, 0.0, 2.0)


def test_drive_sampled_finer_than_dt_rejected(grid, vacuum):
    # dt must not exceed the drive sample step
    with pytest.raises(ValueError):
        propagate_driven(vacuum.astype(complex), grid, 0.0, 1.0, np.zeros(10001))


def test_window_above_step_budget_rejected(grid, vacuum):
    # refused by the step budget before any per-step array is built, with
    # a drive and without one
    with pytest.raises(ValueError, match="above the step budget"):
        propagate_driven(vacuum.astype(complex), grid, 0.0, 1e300)
    with pytest.raises(ValueError, match="above the step budget"):
        propagate_driven(vacuum.astype(complex), grid, 0.0, 1e300, np.zeros(2))
    with pytest.raises(ValueError, match="above the step budget"):
        checked_drive(np.zeros(2), 1e6, 1e-3)
    assert step_count(1e4, 1e-3) == 10**7


def test_single_sample_drive_rejected(grid, vacuum):
    with pytest.raises(ValueError):
        propagate_driven(vacuum.astype(complex), grid, 0.0, 1.0, np.ones(1))
    # the generating-functional side refuses the same malformed drives
    for drive in (np.ones(1), np.ones((5, 2))):
        with pytest.raises(ValueError):
            kernel_matrix_genfunc([0.5], [0.5], 1.0, 1.0, 0.0, 1.0, drive)


def test_non_finite_drive_rejected(grid, vacuum):
    # both sides refuse the drive, never returning NaNs
    for bad in (np.nan, np.inf, -np.inf):
        drive = np.sin(np.linspace(0.0, 1.0, 11))
        drive[3] = bad
        with pytest.raises(ValueError, match="sample 3 .* not finite"):
            propagate_driven(vacuum.astype(complex), grid, 0.0, 1.0, drive)
        with pytest.raises(ValueError, match="sample 3 .* not finite"):
            kernel_matrix_genfunc([0.5], [0.5], 1.0, 1.0, 0.0, 1.0, drive)


def test_backwards_window_refused_on_both_sides(grid, boundary):
    # the kernel's |tau| would fold [1, 0] onto [0, 1] on the
    # generating-functional side; both sides refuse it instead
    with pytest.raises(ValueError, match="must be >= t_initial"):
        kernel_matrix_solver(grid, boundary, [0.5], [0.5], 1.0, 0.0)
    with pytest.raises(ValueError, match="must not exceed t_final"):
        kernel_matrix_genfunc([0.5], [0.5], 1.0, 1.0, 1.0, 0.0)


def _unfused_strang(psi0, grid, t_initial, t_final, drive=None):
    """Reference split-step loop: both potential half-steps in every step."""
    psi = np.array(psi0, dtype=complex)
    span = t_final - t_initial
    n_steps = int(np.ceil(span / grid.dt - 1e-12))
    dt = span / n_steps
    kin_factor = np.exp(-1j * dt * grid.hbar * grid.wavenumbers**2 / 2.0)
    t_mid = t_initial + (np.arange(n_steps) + 0.5) * dt
    j_mid = (np.zeros(n_steps) if drive is None else
             np.interp(t_mid, np.linspace(t_initial, t_final, drive.size), drive))
    for step in range(n_steps):
        v_mid = grid.potential - j_mid[step] * grid.q
        half = np.exp(-0.5j * dt * v_mid / grid.hbar)
        psi = half * np.fft.ifft(kin_factor * np.fft.fft(half * psi, axis=-1), axis=-1)
    return psi


def test_fused_loop_matches_unfused_strang(grid, vacuum):
    kicks = np.exp(-1j * np.outer(np.linspace(-3.0, 3.0, 32), grid.q))
    batch = vacuum[None, :] * kicks
    drive = 0.7 * np.sin(3.0 * np.linspace(0.0, 0.5, 501))
    cases = [
        (vacuum, 0.0, 0.3, None),                 # free window, one row
        (batch[5], 0.2, 0.7, drive),              # driven window, one row
        (batch, 0.0, 0.3, None),                  # free, 32 rows
        (batch, 0.2, 0.7, drive),                 # driven, 32 rows
        (batch[:1], 0.0, 0.3, drive[:301]),       # driven, shape (1, n)
        (batch, 0.0, 7e-4, None),                 # n_steps == 1
        (batch, 0.0, 1e-3, np.array([0.3, -0.2])),
    ]
    for psi0, t0, t1, drv in cases:
        got = propagate_driven(psi0, grid, t0, t1, drv)
        want = _unfused_strang(psi0, grid, t0, t1, drv)
        assert got.shape == np.shape(psi0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.fixture(scope="module")
def rows_alone(grid, vacuum):
    """32 kicked vacua; free and driven windows, each longer than one edge-check
    stride, with every row propagated alone as the reference."""
    batch = vacuum[None, :] * np.exp(-1j * np.outer(np.linspace(-3.0, 3.0, 32), grid.q))
    drive = 0.7 * np.sin(3.0 * np.linspace(0.0, 0.25, 251))
    cases = [(t0, t1, drv, np.stack([propagate_driven(row, grid, t0, t1, drv)
                                     for row in batch]))
             for t0, t1, drv in ((0.0, 0.25, None), (0.1, 0.35, drive))]
    return batch, cases


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_row_split_bit_identical_to_rows_alone(grid, rows_alone, monkeypatch, cpus):
    # 32 rows cut into one chunk per CPU (3 gives 11 + 11 + 10 rows; 8 can
    # be more threads than there are cores) equal each row propagated
    # alone, byte for byte; a short switch interval interleaves the threads.
    # The chunk floor drops to 4 rows so that the CPU count alone sets the cut
    batch, cases = rows_alone
    monkeypatch.setattr(qm_oracle, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(qm_oracle, "_MIN_CHUNK_VALUES", 4 * grid.n_points)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t0, t1, drv, alone in cases:
            got = propagate_driven(batch, grid, t0, t1, drv)
            assert got.tobytes() == alone.tobytes(), (cpus, drv is None)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("leaking_chunk", ["worker", "caller"])
def test_leak_in_either_chunk_raises_and_no_thread_outlives_the_call(
        grid, vacuum, monkeypatch, leaking_chunk):
    # two 4-row chunks: the caller's thread runs rows 0-3, one worker rows
    # 4-7.  A faint row kicked out to the edge leaks in the chosen chunk
    monkeypatch.setattr(qm_oracle, "_available_cpus", lambda: 2)
    monkeypatch.setattr(qm_oracle, "_MIN_CHUNK_VALUES", 4 * grid.n_points)
    batch = np.tile(vacuum.astype(complex), (8, 1))
    batch[7 if leaking_chunk == "worker" else 0] *= 1e-6 * np.exp(-8j * grid.q)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="boundary leak"):
        propagate_driven(batch, grid, 0.0, 2.0)
    assert threading.active_count() == before


def test_first_error_in_chunk_order_is_raised(grid, vacuum, monkeypatch):
    # both chunks leak; the worker's row, kicked harder, leaks at an earlier
    # edge check, but the caller's chunk comes first
    monkeypatch.setattr(qm_oracle, "_available_cpus", lambda: 2)
    monkeypatch.setattr(qm_oracle, "_MIN_CHUNK_VALUES", 4 * grid.n_points)
    batch = np.tile(vacuum.astype(complex), (8, 1))
    batch[0] *= 1e-6 * np.exp(-8j * grid.q)
    batch[7] *= 1e-6 * np.exp(-11j * grid.q)
    alone = []
    for row in (batch[0], batch[7]):
        with pytest.raises(RuntimeError, match="boundary leak") as caught:
            propagate_driven(row, grid, 0.0, 2.0)
        alone.append(str(caught.value))
    assert alone[0] != alone[1]
    with pytest.raises(RuntimeError) as caught:
        propagate_driven(batch, grid, 0.0, 2.0)
    assert str(caught.value) == alone[0]


def test_propagate_leaves_input_untouched(grid, vacuum):
    psi0 = vacuum.astype(complex)
    before = psi0.copy()
    for t_final in (0.0, 0.01):
        psi = propagate_driven(psi0, grid, 0.0, t_final)
        assert psi is not psi0 and not np.shares_memory(psi, psi0)
        assert np.array_equal(psi0, before)


def _dense_hamiltonian(g):
    """Dense grid Hamiltonian, its kinetic part the FFT of the identity."""
    kin = 0.5 * g.hbar**2 * g.wavenumbers**2
    eye = np.eye(g.n_points)
    k_dense = np.fft.ifft(kin[:, None] * np.fft.fft(eye, axis=0), axis=0).real
    return 0.5 * (k_dense + k_dense.T) + np.diag(g.potential)


def _assert_lowest_eigenvector(g, state):
    h = _dense_hamiltonian(g)
    energies, vecs = np.linalg.eigh(h)
    ref = vecs[:, 0] / g.norm(vecs[:, 0])
    ref *= np.sign(ref[np.argmax(np.abs(ref))])
    assert np.max(np.abs(state - ref)) < 1e-12
    assert g.norm(h @ state - energies[0] * state) < _EIGEN_TOL


def test_circulant_hamiltonian_matches_fft_of_identity(grid, vacuum):
    # the gate's matvec (one FFT pair plus the diagonal potential) is the
    # FFT-of-identity Hamiltonian, and the vacuum is its lowest eigenvector
    h = _dense_hamiltonian(grid)
    kin = 0.5 * grid.hbar**2 * grid.wavenumbers**2
    matvec = np.fft.ifft(kin * np.fft.fft(vacuum)).real + grid.potential * vacuum
    # relative to |H| |psi|, the rounding scale of a dense matvec
    scale = np.max(np.abs(h) @ np.abs(vacuum))
    assert np.max(np.abs(matvec - h @ vacuum)) <= 1e-12 * scale
    _assert_lowest_eigenvector(grid, vacuum)


def test_ground_state_fresh_per_grid_and_read_only(grid, vacuum):
    # no cache: an equal grid gives an equal, fresh array, so a caller
    # writing into its state reaches no other caller; the read-only copies
    # are BoundaryFactors'
    same = QMGrid(q_min=-12.0, q_max=12.0, n_points=512, dt=1e-3, omega=1.0)
    fresh = ground_state(same)
    assert fresh is not vacuum and np.array_equal(fresh, vacuum)
    fresh[0] = 1.0
    assert np.array_equal(ground_state(same), vacuum)
    bf = BoundaryFactors.vacuum(grid)
    assert bf.left is not bf.right
    for arr in (bf.left, bf.right):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    other = QMGrid(q_min=-12.0, q_max=12.0, n_points=512, dt=1e-3, omega=2.0)
    psi = ground_state(other)
    assert not np.allclose(psi, vacuum)
    _assert_lowest_eigenvector(other, psi)


def test_ground_state_refuses_box_too_small():
    # omega 0.3 on [-12, 12]: the vacuum's tails wrap around the periodic
    # grid and the eigen-residual reaches 8e-9
    with pytest.raises(RuntimeError, match="eigen-residual"):
        ground_state(QMGrid(q_min=-12.0, q_max=12.0, n_points=1024, dt=1e-3,
                            omega=0.3))


def test_ground_state_refuses_an_underflowed_vacuum():
    # width sqrt(h / omega) = 1e-5, far below the spacing, and no point on
    # q = 0: exp(-omega q^2 / (2 h)) is 0 everywhere and would normalize to NaN
    tiny = QMGrid(-12.001, 12.0, 1024, 1e-6, 1e4, 1e-6)
    with pytest.raises(RuntimeError, match="underflows"):
        ground_state(tiny)
    with pytest.raises(RuntimeError, match="underflows"):
        BoundaryFactors.vacuum(tiny)


def test_coincident_kernel_matches_analytic_gaussian(grid, boundary):
    p0s = np.linspace(-2.0, 2.0, 16)
    ps = np.linspace(-2.0, 2.0, 16)
    lhs = kernel_matrix_solver(grid, boundary, p0s, ps, 0.0, 0.0)
    analytic = np.exp(-(ps[None, :] - p0s[:, None])**2 / 4.0)
    assert np.max(np.abs(lhs - analytic)) < 1e-6


def test_coincident_genfunc_equals_gaussian():
    for p0 in (-1.0, 0.0, 0.7):
        for p in (-0.3, 0.0, 1.2):
            val = kernel_matrix_genfunc([p0], [p], 1.0, 1.0, 0.0, 0.0)[0, 0]
            assert val == pytest.approx(np.exp(-(p - p0)**2 / 4.0), rel=1e-12)
    assert kernel_matrix_genfunc([0.0], [0.0], 1.0, 1.0, 0.0, 0.0)[0, 0] == pytest.approx(1.0)


def test_driven_genfunc_against_dense_reference():
    # the driven one-mode exponent rebuilt here from its definition:
    # (-i/2h) int int j D j on j = p delta(t - T) - p0 delta(t - T0) + drive,
    # closed-form delta terms, explicit trapezoid weights and a dense
    # (n, n) drive-drive kernel matrix
    omega, hbar, t0, t1 = 1.3, 0.7, 0.4, 2.1
    n = 401
    tt = np.linspace(t0, t1, n)
    drive = np.sin(2.0 * tt) + 0.3 * np.cos(5.0 * tt)
    step = tt[1] - tt[0]
    w = np.full(n, step)
    w[0] = w[-1] = 0.5 * step

    def kern(tau):
        return -0.5j / omega * np.exp(-1j * omega * np.abs(tau))

    dense = (w * drive) @ kern(tt[:, None] - tt[None, :]) @ (w * drive)
    for p0, p in ((0.0, 0.0), (-0.45, 0.8), (1.1, -1.6), (2.0, 2.0)):
        quad = (kern(0.0) * (p**2 + p0**2) - 2.0 * kern(t1 - t0) * p * p0
                + 2.0 * p * np.sum(w * kern(t1 - tt) * drive)
                - 2.0 * p0 * np.sum(w * kern(tt - t0) * drive) + dense)
        expected = np.exp(-0.5j / hbar * quad)
        got = kernel_matrix_genfunc([p0], [p], omega, hbar, t0, t1, drive)[0, 0]
        assert got == pytest.approx(expected, rel=1e-12), (p0, p)


def test_coincident_diagonal_constant(grid, boundary):
    ps = np.linspace(-2.0, 2.0, 11)
    m = kernel_matrix_solver(grid, boundary, ps, ps, 0.0, 0.0)
    diag = np.diag(m)
    assert np.max(np.abs(diag - diag.mean())) < 1e-8


def test_empty_momentum_grids(grid, boundary):
    m = kernel_matrix_solver(grid, boundary, [], [], 0.0, 1.0)
    assert m.shape == (0, 0)


def test_band_limit_enforced(grid, boundary):
    # a NaN momentum is refused like one beyond the band
    for p in (grid.p_band_limit * 1.5, np.nan):
        with pytest.raises(ValueError, match="resolvable band"):
            check_band(grid, [0.0], [p])
        with pytest.raises(ValueError, match="resolvable band"):
            kernel_matrix_solver(grid, boundary, [p], [0.0], 0.0, 0.0)


def test_kernel_identity_drive_free_gap(grids):
    p0s = np.linspace(-2.5, 2.5, 12)
    ps = np.linspace(-2.5, 2.5, 12)
    for g, b in grids:
        lhs = kernel_matrix_solver(g, b, p0s, ps, 0.0, 1.0)
        rhs = kernel_matrix_genfunc(p0s, ps, 1.0, g.hbar, 0.0, 1.0)
        report = compare_kernels(lhs, rhs, 1e-2)
        assert report.passed, g.hbar
        assert report.numeric_spread < 1e-4, g.hbar
        # the up-to-constant factor is the vacuum phase e^{-i E T / h} over
        # the window, E = h omega / 2 at every hbar
        assert report.params["mean_ratio"] == pytest.approx(np.exp(-0.5j), rel=1e-4)


def test_kernel_identity_with_drive(grids):
    p0s = np.linspace(-2.0, 2.0, 8)
    ps = np.linspace(-2.0, 2.0, 8)
    tt = np.linspace(0.0, 2.0, 2001)
    drive = np.sin(tt)
    for g, b in grids:
        lhs = kernel_matrix_solver(g, b, p0s, ps, 0.0, 2.0, drive)
        rhs = kernel_matrix_genfunc(p0s, ps, 1.0, g.hbar, 0.0, 2.0, drive)
        report = compare_kernels(lhs, rhs, 1e-2)
        assert report.passed, g.hbar


def test_compare_kernels_mismatched_omega_fails(grid, boundary):
    p0s = np.linspace(-2.0, 2.0, 8)
    ps = np.linspace(-2.0, 2.0, 8)
    lhs = kernel_matrix_solver(grid, boundary, p0s, ps, 0.0, 0.0)
    rhs = kernel_matrix_genfunc(p0s, ps, 1.3, 1.0, 0.0, 0.0)
    report = compare_kernels(lhs, rhs, 1e-3)
    assert not report.passed
    assert report.numeric_spread > 1e-2


def test_compare_kernels_inconclusive_when_all_excluded():
    lhs = np.full((3, 3), 1e-12 + 0j)
    rhs = np.ones((3, 3), dtype=complex)
    report = compare_kernels(lhs, rhs, 1e-3)
    assert report.verdict == "inconclusive"
    assert not report.passed


def test_compare_kernels_fails_on_non_finite_entries():
    # NaN fails the floor test like a tiny entry would; it must not be
    # dropped, here leaving one entry to "pass" at spread 0.  A non-finite
    # rhs entry fails too, beside a finite lhs entry below the floor
    rhs = np.exp(1j * np.arange(16.0)).reshape(4, 4)
    lhs = 2.0 * rhs
    lhs.flat[1:] = np.nan
    report = compare_kernels(lhs, rhs, 1e-3)
    assert report.verdict == "fail"
    assert report.params["entries_non_finite"] == 15
    tiny = np.full((4, 4), 1e-12 + 0j)
    rhs = np.ones((4, 4), dtype=complex)
    rhs[2, 3] = np.inf
    report = compare_kernels(tiny, rhs, 1e-3)
    assert report.verdict == "fail"
    assert report.params["entries_non_finite"] == 1


def test_compare_kernels_fails_on_zero_rhs_above_floor():
    rhs = np.exp(1j * np.arange(16.0)).reshape(4, 4)
    lhs = 2.0 * rhs
    rhs[1, 2] = 0.0
    report = compare_kernels(lhs, rhs, 1e-3)
    assert report.verdict == "fail"
    assert report.params["entries_zero_rhs"] == 1
    # below the floor a zero rhs is excluded with its entry, as before
    lhs[1, 2] = 1e-12
    report = compare_kernels(lhs, rhs, 1e-3)
    assert report.passed and report.params["entries_used"] == 15


def test_compare_kernels_shape_mismatch():
    with pytest.raises(ValueError):
        compare_kernels(np.ones((2, 2)), np.ones((2, 3)), 1e-3)


def _kernel_by_matmul(grid, boundary, p0s, ps, t_initial, t_final, drive=None):
    """The batch and the kernel of the out-of-place weighted @ transform formula."""
    q = grid.q
    chi = boundary.left[None, :] * np.exp(-1j * np.outer(p0s, q) / grid.hbar)
    evolved = propagate_driven(chi, grid, t_initial, t_final, drive)
    weighted = evolved * boundary.right[None, :]
    transform = np.exp(1j * np.outer(q, ps) / grid.hbar) * grid.dq
    return chi, weighted @ transform


def test_in_place_kernel_matches_matmul_formula(grids, monkeypatch):
    # the in-place batch is bit-identical to the formula's; the einsum
    # contraction differs from the zgemm in summation order alone, and the
    # drive-free cases, contracted at their midpoint, by rounding
    seen = []
    evolve_in_place = qm_oracle._propagate_in_place

    def recording(psi, *args):
        seen.append(psi.copy())
        return evolve_in_place(psi, *args)

    monkeypatch.setattr(qm_oracle, "_propagate_in_place", recording)
    moms = np.linspace(-2.0, 2.0, 8)
    drive = np.sin(np.linspace(0.0, 0.1, 101))
    for g, b in grids:
        for p0s, ps, t1, drv in ((moms, moms, 0.0, None), (moms, moms, 0.1, None),
                                 (moms, moms, 0.1, drive),
                                 ([0.0, 1.0], [0.0, 1.0], 0.1, None)):
            p0s, ps = np.array(p0s), np.array(ps)
            kept = [b.left.copy(), b.right.copy(), p0s.copy(), ps.copy()]
            got = kernel_matrix_solver(g, b, p0s, ps, 0.0, t1, drv)
            chi, want = _kernel_by_matmul(g, b, p0s, ps, 0.0, t1, drv)
            assert np.array_equal(seen.pop().view(np.uint64), chi.view(np.uint64))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            for before, after in zip(kept, (b.left, b.right, p0s, ps)):
                assert np.array_equal(before, after)


@pytest.mark.parametrize("t_final, driven", [(0.0, False), (0.2, False), (0.2, True)],
                         ids=["coincident", "drive_free", "driven"])
def test_kernel_call_holds_at_most_one_and_a_quarter_arrays(monkeypatch, t_final,
                                                            driven):
    # a 32-row batch on 1024 points, coincident or over 200 steps, traced
    # after a warm-up call, in two chunks as on a 2-core host (each further
    # chunk holds one more row of phases); the out-of-place formula peaks
    # at five full arrays
    monkeypatch.setattr(qm_oracle, "_available_cpus", lambda: 2)
    g = QMGrid(q_min=-12.0, q_max=12.0, n_points=1024, dt=1e-3, omega=1.0)
    b = BoundaryFactors.vacuum(g)
    moms = np.linspace(-3.0, 3.0, 32)
    drive = np.sin(np.linspace(0.0, 0.2, 201)) if driven else None
    kernel_matrix_solver(g, b, moms, moms, 0.0, t_final, drive)
    tracemalloc.start()
    try:
        kernel_matrix_solver(g, b, moms, moms, 0.0, t_final, drive)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full = moms.size * g.n_points * 16
    assert peak <= 1.25 * full, peak / full


@pytest.fixture
def windows(monkeypatch):
    """(t_initial, t_final, n_steps) of every _propagate_in_place call."""
    seen = []
    evolve_in_place = qm_oracle._propagate_in_place

    def recording(psi, grid, t_initial, t_final, drive=None, n_steps=None):
        seen.append((t_initial, t_final, n_steps))
        return evolve_in_place(psi, grid, t_initial, t_final, drive, n_steps)

    monkeypatch.setattr(qm_oracle, "_propagate_in_place", recording)
    return seen


def test_drive_free_kernels_contracted_at_the_midpoint(windows):
    # oracle-qm's gap_1 and coincident kernels and its mode-0 bridge take
    # half the window's steps at the full window's dt; the midpoint kernel
    # is the endpoint formula's to rounding
    g = QMGrid(q_min=-12.0, q_max=12.0, n_points=1024, dt=1e-3, omega=1.0)
    b = BoundaryFactors.vacuum(g)
    moms = np.linspace(-3.0, 3.0, 32)
    got = kernel_matrix_solver(g, b, moms, moms, 0.0, 1.0)
    kernel_matrix_solver(g, b, moms, moms, 0.0, 0.0)
    bridge = [cross_coefficient_solver(g, b, 1.0, 1.0, 0.0, t1) for t1 in (0.5, 1.0)]
    assert windows == [(0.0, 0.5, 500), (0.0, 0.0, 0), (0.0, 0.25, 250),
                       (0.0, 0.5, 500)]
    _, want = _kernel_by_matmul(g, b, moms, moms, 0.0, 1.0)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    for t1, c in zip((0.5, 1.0), bridge):
        _, m = _kernel_by_matmul(g, b, [0.0, 1.0], [0.0, 1.0], 0.0, t1)
        assert abs(c - np.log((m[1, 1] * m[0, 0]) / (m[1, 0] * m[0, 1]))) <= 1e-12


def test_kernels_off_the_midpoint_conditions_evolve_the_whole_window(grid, boundary,
                                                                     windows):
    moms = np.array([0.0, 1.0])
    skew = QMGrid(q_min=-11.0, q_max=12.0, n_points=512, dt=1e-3, omega=1.0)
    shifted = BoundaryFactors(left=boundary.left, right=np.roll(boundary.left, 1))
    cases = {"drive": (grid, boundary, moms, 0.2, np.zeros(201)),
             "odd step count": (grid, boundary, moms, 0.999, None),
             "asymmetric box": (skew, BoundaryFactors.vacuum(skew), moms, 0.2, None),
             "p0 != p": (grid, boundary, moms[::-1], 0.2, None),
             "no reflection": (grid, shifted, moms, 0.2, None)}
    for name, (g, b, p0s, t1, drive) in cases.items():
        windows.clear()
        kernel_matrix_solver(g, b, p0s, moms, 0.0, t1, drive)
        assert windows == [(0.0, t1, None)], name


def test_leak_in_the_half_window_still_raises(windows):
    # on [-8, 8] the rows of a two-unit window reach the edge before its
    # midpoint, t = 1
    g = QMGrid(q_min=-8.0, q_max=8.0, n_points=256, dt=1e-3, omega=1.0)
    moms = np.linspace(-3.0, 3.0, 32)
    with pytest.raises(RuntimeError, match="boundary leak"):
        kernel_matrix_solver(g, BoundaryFactors.vacuum(g), moms, moms, 0.0, 2.0)
    assert windows == [(0.0, 1.0, 1000)]


@pytest.mark.parametrize("factor", [1.0, np.ones(1), np.ones(3)],
                         ids=["scalar", "length_1", "length_3"])
def test_boundary_factors_of_the_wrong_shape_refused(factor):
    g = QMGrid(q_min=-12.0, q_max=12.0, n_points=256, dt=1e-3, omega=1.0)
    shape = re.escape(str(np.shape(factor)))
    for left, right in ((factor, factor), (ground_state(g), factor)):
        for t1 in (0.0, 0.01):
            with pytest.raises(ValueError, match=rf"shape \(256,\).*right {shape}"):
                kernel_matrix_solver(g, BoundaryFactors(left, right), [0, 1], [0, 1],
                                     0.0, t1)


def test_a_window_shorter_than_the_step_slack_takes_one_step(grid, boundary):
    # a positive window within step_count's rounding slack of 0 still takes
    # one step; with none, the step span / n_steps would divide by 0
    assert step_count(0.0, 1e-3) == 0
    assert step_count(1e-16, 1e-3) == 1
    m = kernel_matrix_solver(grid, boundary, [0.0, 1.0], [0.0, 1.0], 0.0, 1e-16)
    assert np.allclose(m, kernel_matrix_solver(grid, boundary, [0.0, 1.0], [0.0, 1.0],
                                               0.0, 0.0), rtol=1e-12)


def test_cross_coefficient_matches_closed_form(grids):
    for g, b in grids:
        got = cross_coefficient_solver(g, b, 1.0, 1.0, 0.0, 0.8)
        # p p0 e^{-i omega (T - T0)} / (2 h omega) at p = p0 = omega = 1
        want = np.exp(-0.8j) / (2.0 * g.hbar)
        assert got == pytest.approx(want, abs=1e-7), g.hbar


def test_cross_phase_ratio_between_horizons(grid, boundary):
    c_a = cross_coefficient_solver(grid, boundary, 1.0, 1.0, 0.0, 0.5)
    c_b = cross_coefficient_solver(grid, boundary, 1.0, 1.0, 0.0, 1.0)
    assert c_b / c_a == pytest.approx(np.exp(-0.5j), abs=1e-6)


def test_qm_drive_csv(tmp_path):
    path = tmp_path / "drive.csv"
    path.write_text("t,value\n0.0,0.0\n0.5,0.25\n1.0,0.5\n")
    t, vals = qm_drive_from_csv(path)
    assert np.allclose(t, [0.0, 0.5, 1.0])
    assert np.allclose(vals, [0.0, 0.25, 0.5])
    bad = tmp_path / "bad.csv"
    bad.write_text("t,value\n0.0,0.0\n0.3,0.25\n1.0,0.5\n")
    with pytest.raises(ValueError):
        qm_drive_from_csv(bad)
