"""Command-line front end: config loading, experiment runs, report emission.

Reports are machine-first (JSON plus CSV; CSV bodies are byte-stable for a
fixed config and seed, with the timestamp confined to a leading comment
line); a short human summary goes to standard output.  Exit status is zero
exactly when every verdict passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .modespace import ModeSpace, ModeVector, build_mode_space, require_real
from .pseudodynamics import advance, calibrate, evolution_functional
from .qm_oracle import (BoundaryFactors, QMGrid, check_band, checked_drive,
                        cross_coefficient_solver, kernel_matrix_genfunc,
                        kernel_matrix_solver, step_count)
from .reports import SWEEP_CSV_COLUMNS, ResidualReport, sweep_csv_row
from .verifier import (compare_kernels, first_order_residual,
                       schrodinger_residual, semigroup_check)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    modes: int = 16
    box_length: float = 2.0 * np.pi
    mass: float = 1.0
    hbar: float = 1.0
    time: float | None = None
    v_spec: str = "random"
    seed: int = 1234
    out: str = "reports"
    tol_coeff: float = 1e-12
    tol_numeric: float = 1e-6
    tol_schrodinger: float = 1e-10
    tol_spread: float = 1e-9
    tol_kernel_coincident: float = 1e-3
    tol_kernel_gap: float = 1e-2
    tol_bridge: float = 1e-6
    sweep_modes: tuple = (2, 8, 16, 64)
    sweep_masses: tuple = (0.5, 1.0, 2.0)
    sweep_times: tuple = (0.1, 1.0, 10.0)
    qm_q_min: float | None = None   # unset: -12 max(1, sqrt(hbar))
    qm_q_max: float | None = None   # unset: +12 max(1, sqrt(hbar))
    qm_points: int = 1024
    qm_dt: float = 1e-3
    qm_omega: float = 1.0
    drive_file: str | None = None

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            record = json.loads(Path(path).read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
        except OSError as err:
            raise ConfigError(f"{path}: {err.strerror or err}") from err
        if not isinstance(record, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(record) - known
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        cfg = cls(**{k: tuple(v) if isinstance(v, list) else v
                     for k, v in record.items()})
        return cfg


# lattice modes whose oscillators the oracle-qm mode bridge checks, and the
# endpoint momentum p = p0 of its cross coefficients
_BRIDGE_MODES = (0, 1)
_BRIDGE_P = 1.0


def _require(ok: bool, message: str):
    if not ok:
        raise ValueError(message)


def _checked(keys: str, build):
    """build(), with any construction error re-raised as a ConfigError.

    Every command builds its inputs under this before its first write.  A
    RuntimeError here is the vacuum's eigen-residual gate on an oracle grid
    too small for its frequency, or calibrate's spread gate.  Floating-point
    overflow, invalid values and division by zero raise, so an input too
    large to build (a time of 1e308, a mass of 1e300, an infinite hbar) is
    refused without warnings.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return build()
    except (ValueError, TypeError, IndexError, OSError, RuntimeError,
            ArithmeticError) as err:
        raise ConfigError(f"{keys}: {err}") from err


def _inputs(cfg: RunConfig):
    """The checked inputs every command shares: lattice, calibration,
    initial layer and the seeded generator, after the tolerances and time."""
    for name in ("tol_coeff", "tol_numeric", "tol_schrodinger", "tol_spread",
                 "tol_kernel_coincident", "tol_kernel_gap", "tol_bridge"):
        _checked(name, lambda: require_real(name, getattr(cfg, name)))
        _checked(name, lambda: _require(0 < getattr(cfg, name) < np.inf,
                                        "must be finite and positive"))
    _checked("time", lambda: cfg.time is None or require_real("time", cfg.time))
    _checked("time", lambda: _require(cfg.time is None or cfg.time >= 0,
                                      f"must be nonnegative, got {cfg.time}"))
    _checked("seed", lambda: _require(type(cfg.seed) is int,   # a bool is an int
                                      f"must be an integer (not a bool), got {cfg.seed!r}"))
    rng = _checked("seed", lambda: np.random.default_rng(cfg.seed))
    space, calib = _checked("modes, box_length, mass, hbar",
                            lambda: _lattice(cfg, cfg.modes, cfg.mass))
    v_hat = _checked("v_spec, seed", lambda: _initial_layer(cfg, space))
    return space, calib, v_hat, rng


def _lattice(cfg: RunConfig, modes, mass):
    """A lattice of the config's box and hbar, with its calibration."""
    space = build_mode_space(modes, cfg.box_length, mass, cfg.hbar)
    return space, calibrate(space)


def _out_dir(cfg: RunConfig) -> Path:
    """The last build step: the report directory, created."""
    _checked("out", lambda: Path(cfg.out).mkdir(parents=True, exist_ok=True))
    return Path(cfg.out)


def _vacuum_grid(cfg: RunConfig, omega: float, *momenta):
    """An oracle grid at omega with its vacuum boundary factors, refused
    unless it resolves the endpoint momenta it will transform.  An unset box
    edge is +/-12 max(1, sqrt(h)): the vacuum's width grows as sqrt(h)."""
    half = 12.0 * max(1.0, np.sqrt(cfg.hbar))
    grid = QMGrid(-half if cfg.qm_q_min is None else cfg.qm_q_min,
                  half if cfg.qm_q_max is None else cfg.qm_q_max,
                  cfg.qm_points, cfg.qm_dt, omega, cfg.hbar)
    check_band(grid, *momenta)
    return grid, BoundaryFactors.vacuum(grid)


def qm_drive_from_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Load a scalar drive from CSV columns (t, value) below one header line;
    times must be finite and uniform."""
    rows = Path(path).read_text().splitlines()[1:]
    # loadtxt only warns on a file without data, and reads "#" as a comment
    if not any(row.split("#", 1)[0].strip() for row in rows):
        raise ValueError("drive CSV has no samples below its header")
    raw = np.loadtxt(rows, delimiter=",", ndmin=2)
    if raw.shape[1] != 2:
        raise ValueError("drive CSV must have columns t, value")
    t = raw[:, 0]
    if not np.isfinite(t).all():
        raise ValueError("drive CSV times must be finite")
    if t.size < 2 or not np.allclose(np.diff(t), t[1] - t[0], rtol=1e-9, atol=1e-12):
        raise ValueError("drive CSV time grid must be uniform with >= 2 samples")
    return t, raw[:, 1]


def _oracle_drive(cfg: RunConfig):
    """The driven case's window and drive: the drive file, or sin(t) on [0, 2]."""
    if not cfg.drive_file:
        return (0.0, 2.0), np.sin(np.linspace(0.0, 2.0, 2001))
    t_samples, drive = qm_drive_from_csv(cfg.drive_file)
    window = (float(t_samples[0]), float(t_samples[-1]))
    return window, checked_drive(drive, window[1] - window[0], cfg.qm_dt)


def _initial_layer(cfg: RunConfig, space: ModeSpace) -> ModeVector:
    spec = cfg.v_spec
    if spec == "zero":
        return ModeVector.zeros(space)
    if spec == "random":
        vec = ModeVector.random(space, np.random.default_rng(cfg.seed))
        return ModeVector(space, vec.values / np.linalg.norm(vec.values))
    if isinstance(spec, str) and spec.startswith("single:"):
        return ModeVector.basis(space, int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown preset {spec!r}")


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, columns, rows, seed):
    stamp = datetime.now(timezone.utc).isoformat()
    lines = [f"# generated {stamp} seed={seed}", ",".join(columns)]
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n")


def _emit(report: ResidualReport, out_dir: Path, name: str) -> int:
    _write_json(out_dir / f"{name}.json", report.to_dict())
    print(report.summary_line())
    return 0 if report.passed else 1


def _cmd_calibrate(cfg: RunConfig) -> int:
    space, lam, _, _ = _inputs(cfg)
    out_dir = _out_dir(cfg)
    payload = {"space": space.to_config(),
               "calibration": {"lambda_re": lam.real, "lambda_im": lam.imag}}
    _write_json(out_dir / "calibration.json", payload)
    print(f"calibration: lambda = {lam.real:+.12g}{lam.imag:+.12g}i")
    return 0


# each identity check by the name of its report, judged at the config's
# tolerances; verify-* runs one, sweep runs both
_CHECKS = {
    "first_order": lambda cfg, state: first_order_residual(
        state, tol_coeff=cfg.tol_coeff, tol_numeric=cfg.tol_numeric, seed=cfg.seed),
    "schrodinger": lambda cfg, state: schrodinger_residual(
        state, tol_coeff=cfg.tol_schrodinger, tol_spread=cfg.tol_spread,
        tol_numeric=cfg.tol_numeric, seed=cfg.seed),
}


def _verify(cfg: RunConfig, name: str) -> int:
    space, calib, v_hat, _ = _inputs(cfg)
    t = 1.0 if cfg.time is None else cfg.time
    state = _checked("time", lambda: evolution_functional(space, v_hat, t,
                                                          calibration=calib))
    out_dir = _out_dir(cfg)
    return _emit(_CHECKS[name](cfg, state), out_dir, name)


def _cmd_semigroup(cfg: RunConfig) -> int:
    space, calib, v_hat, rng = _inputs(cfg)
    t = 3.0 if cfg.time is None else cfg.time
    _checked("time", lambda: evolution_functional(space, v_hat, t, calibration=calib))
    out_dir = _out_dir(cfg)
    worst = 0.0
    for _ in range(10):
        cuts = np.sort(rng.uniform(0.0, t, 4))
        parts = np.diff(np.concatenate([[0.0], cuts, [t]]))
        worst = max(worst, semigroup_check(space, v_hat, parts, calibration=calib))
    passed = worst < cfg.tol_coeff
    report = ResidualReport(
        identity="semigroup", numeric_spread=worst,
        params={**space.to_config(), "t": t, "seed": cfg.seed, "partitions": 10},
        tolerances={"coeff": cfg.tol_coeff},
        verdict="pass" if passed else "fail")
    return _emit(report, out_dir, "semigroup")


def _kernel_csv_rows(moms, lhs, rhs):
    ratio = np.where(np.abs(rhs) > 0, lhs / np.where(np.abs(rhs) > 0, rhs, 1.0), np.nan)
    return [",".join(repr(float(x)) for x in (
                p0, p, lhs[i, j].real, lhs[i, j].imag, rhs[i, j].real, rhs[i, j].imag,
                ratio[i, j].real, ratio[i, j].imag))
            for i, p0 in enumerate(moms) for j, p in enumerate(moms)]


def _cmd_oracle_qm(cfg: RunConfig) -> int:
    space, calib, _, _ = _inputs(cfg)
    moms = np.linspace(-3.0, 3.0, 32)   # the endpoint momenta, p0 and p alike
    grid, boundary = _checked("qm_q_min, qm_q_max, qm_points, qm_dt, qm_omega, hbar",
                              lambda: _vacuum_grid(cfg, cfg.qm_omega, moms))
    bridges = {k: _checked(f"mode bridge grid at k={k} (from modes, box_length, mass)",
                           lambda: _vacuum_grid(cfg, space.frequency(k), _BRIDGE_P))
               for k in _BRIDGE_MODES}
    drive_window, drive = _checked("drive_file", lambda: _oracle_drive(cfg))
    # gap_1 and the bridges run to t = 1, the driven case over its window
    _checked("qm_dt", lambda: step_count(max(1.0, drive_window[1] - drive_window[0]),
                                         cfg.qm_dt))
    out_dir = _out_dir(cfg)
    summary = {"bridge": {}}

    def kernel_case(name, t0, t1, drv, tol):
        params, tols = {"case": name, "t0": t0, "t1": t1}, {"spread": tol}

        def judge():
            lhs = kernel_matrix_solver(grid, boundary, moms, moms, t0, t1, drv)
            rhs = kernel_matrix_genfunc(moms, moms, grid.omega, grid.hbar, t0, t1, drv)
            _write_csv(out_dir / f"kernel_{name}.csv",
                       ["p0", "p", "re_lhs", "im_lhs", "re_rhs", "im_rhs",
                        "ratio_re", "ratio_im"],
                       _kernel_csv_rows(moms, lhs, rhs), cfg.seed)
            return compare_kernels(lhs, rhs, tol, params=params)
        return summary, name, "boundary_kernel_match", params, tols, judge

    def bridge_mode(k, g, b):
        """Lattice mode k as a single oscillator, against the advance phase."""
        params, tols = {"mode": k, "omega": g.omega}, {"bridge": cfg.tol_bridge}

        def judge():
            c_a = cross_coefficient_solver(g, b, _BRIDGE_P, _BRIDGE_P, 0.0, 0.5)
            c_b = cross_coefficient_solver(g, b, _BRIDGE_P, _BRIDGE_P, 0.0, 1.0)
            st = evolution_functional(space, ModeVector.basis(space, k, 1.0), 0.5,
                                      calibration=calib)
            idx = int(np.argmax(np.abs(st.coeffs.b)))
            predicted = complex(advance(st, 0.5).coeffs.b[idx] / st.coeffs.b[idx])
            dev = abs(c_b / c_a - predicted)
            return ResidualReport(identity="mode_bridge", numeric_spread=dev,
                                  params=params, tolerances=tols,
                                  verdict="pass" if dev < cfg.tol_bridge else "fail")
        return summary["bridge"], f"mode_{k}", "mode_bridge", params, tols, judge

    checks = [kernel_case("coincident", 0.0, 0.0, None, cfg.tol_kernel_coincident),
              kernel_case("gap_1", 0.0, 1.0, None, cfg.tol_kernel_gap),
              kernel_case("driven", *drive_window, drive, cfg.tol_kernel_gap)]
    checks += [bridge_mode(k, g, b) for k, (g, b) in bridges.items()]
    all_ok = True
    for records, name, identity, params, tols, judge in checks:
        try:
            report = judge()
        except RuntimeError as leak:
            # the solver's one RuntimeError is a boundary leak: amplitude
            # reaching the grid edge, which leaves that check inconclusive
            report = ResidualReport(identity=identity, params=params, tolerances=tols,
                                    verdict="inconclusive", note=str(leak))
        print(f"[{name}] " + report.summary_line())
        records[name] = report.to_dict()
        all_ok &= report.passed
    _write_json(out_dir / "oracle_qm.json", summary)
    return 0 if all_ok else 1


def _cmd_sweep(cfg: RunConfig) -> int:
    _inputs(cfg)   # refused as for every command; the sweep runs its own lattices
    for name in ("sweep_modes", "sweep_masses", "sweep_times"):
        _checked(name, lambda: _require(len(getattr(cfg, name)) > 0, "must not be empty"))
    _checked("sweep_times", lambda: [require_real("sweep_times", t) for t in cfg.sweep_times])
    lattices = _checked("sweep_modes, sweep_masses", lambda: [
        _lattice(cfg, n, m) for n in cfg.sweep_modes for m in cfg.sweep_masses])
    states = []
    for space, calib in lattices:
        v_hat = _checked("v_spec, seed, sweep_modes", lambda: _initial_layer(cfg, space))
        states += _checked("sweep_times", lambda: [
            evolution_functional(space, v_hat, t, calibration=calib)
            for t in cfg.sweep_times])
    out_dir = _out_dir(cfg)

    rows = []
    reports = []
    all_ok = True
    for state in states:
        for check in _CHECKS.values():
            report = check(cfg, state)
            rows.append(sweep_csv_row(report))
            reports.append(report.to_dict())
            all_ok &= report.passed
    _write_csv(out_dir / "sweep.csv", SWEEP_CSV_COLUMNS, rows, cfg.seed)
    _write_json(out_dir / "sweep.json", {"reports": reports,
                                         "verdict": "pass" if all_ok else "fail"})
    print(f"sweep: {len(rows)} checks, verdict {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


_COMMANDS = {
    "calibrate": _cmd_calibrate,
    "verify-first-order": lambda cfg: _verify(cfg, "first_order"),
    "verify-schrodinger": lambda cfg: _verify(cfg, "schrodinger"),
    "semigroup": _cmd_semigroup,
    "oracle-qm": _cmd_oracle_qm,
    "sweep": _cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudodyn",
        description="Verification runs for the free-field evolution functionals.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--modes", type=int)
    parser.add_argument("--mass", type=float)
    parser.add_argument("--box-length", dest="box_length", type=float)
    parser.add_argument("--hbar", type=float)
    parser.add_argument("--time", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--tol-coeff", dest="tol_coeff", type=float)
    parser.add_argument("--tol-numeric", dest="tol_numeric", type=float)
    parser.add_argument("--v-spec", dest="v_spec")
    parser.add_argument("--drive-file", dest="drive_file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        for name, value in vars(args).items():
            if name not in ("command", "config") and value is not None:
                setattr(cfg, name, value)
        return _COMMANDS[args.command](cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
