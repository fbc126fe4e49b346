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

from .modespace import ModeSpace, ModeVector, build_mode_space
from .pseudodynamics import advance, calibrate, evolution_functional
from .qm_oracle import (BoundaryFactors, QMGrid, checked_drive,
                        compare_kernels, cross_coefficient_solver,
                        ground_state, kernel_matrix_genfunc,
                        kernel_matrix_solver, qm_drive_from_csv)
from .reports import SWEEP_CSV_COLUMNS, ResidualReport, sweep_csv_row
from .verifier import (first_order_residual, schrodinger_residual,
                       semigroup_check)


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
    qm_q_min: float = -12.0
    qm_q_max: float = 12.0
    qm_points: int = 1024
    qm_dt: float = 1e-3
    qm_omega: float = 1.0
    drive_file: str | None = None

    def validate(self, command: str):
        """Build everything ``command`` will build from this config.

        Any ValueError, TypeError, IndexError or OSError on the way becomes
        a ConfigError naming the keys involved, and so does the vacuum's
        eigen-residual gate (a RuntimeError) on an oracle grid too small for
        its frequency, so bad input is refused before a run starts.
        """
        for name in ("tol_coeff", "tol_numeric", "tol_schrodinger", "tol_spread",
                     "tol_kernel_coincident", "tol_kernel_gap", "tol_bridge"):
            _checked(name, lambda: _require(getattr(self, name) > 0, "must be positive"))
        _checked("time", lambda: _require(self.time is None or self.time >= 0,
                                          f"must be nonnegative, got {self.time}"))
        space = _checked("modes, box_length, mass, hbar", lambda: _mode_space(self))
        _checked("v_spec, seed", lambda: _initial_layer(self, space))
        if command == "oracle-qm":
            _checked("qm_q_min, qm_q_max, qm_points, qm_dt, qm_omega, hbar",
                     lambda: ground_state(_qm_grid(self, self.qm_omega)))
            for k in _BRIDGE_MODES:
                _checked(f"mode bridge grid at k={k} (from modes, box_length, mass)",
                         lambda: ground_state(_qm_grid(self, space.frequency(k))))
            _checked("drive_file", lambda: _oracle_drive(self))
        if command == "sweep":
            for n in self.sweep_modes:
                for m in self.sweep_masses:
                    sweep_space = _checked("sweep_modes, sweep_masses",
                                           lambda: _sweep_space(self, n, m))
                    _checked("v_spec, seed, sweep_modes",
                             lambda: _initial_layer(self, sweep_space))
            _checked("sweep_times", lambda: _require(
                all(float(t) >= 0 for t in self.sweep_times), "must be nonnegative"))

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            record = json.loads(Path(path).read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
        known = {f.name for f in fields(cls)}
        unknown = set(record) - known
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        cfg = cls(**{k: tuple(v) if isinstance(v, list) else v
                     for k, v in record.items()})
        return cfg


# lattice modes whose oscillators the oracle-qm mode bridge checks
_BRIDGE_MODES = (0, 1)


def _require(ok: bool, message: str):
    if not ok:
        raise ValueError(message)


def _checked(keys: str, build):
    """build(), with any construction error re-raised as a ConfigError."""
    try:
        return build()
    except (ValueError, TypeError, IndexError, OSError, RuntimeError) as err:
        raise ConfigError(f"{keys}: {err}") from err


def _mode_space(cfg: RunConfig) -> ModeSpace:
    return build_mode_space(cfg.modes, cfg.box_length, cfg.mass, cfg.hbar)


def _sweep_space(cfg: RunConfig, n, mass) -> ModeSpace:
    return build_mode_space(int(n), cfg.box_length, float(mass), cfg.hbar)


def _qm_grid(cfg: RunConfig, omega: float) -> QMGrid:
    return QMGrid(cfg.qm_q_min, cfg.qm_q_max, cfg.qm_points, cfg.qm_dt, omega,
                  cfg.hbar)


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
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, columns, rows, seed):
    path.parent.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).isoformat()
    lines = [f"# generated {stamp} seed={seed}", ",".join(columns)]
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n")


def _emit(report: ResidualReport, out_dir: Path, name: str) -> bool:
    _write_json(out_dir / f"{name}.json", report.to_dict())
    print(report.summary_line())
    return report.passed


def _cmd_calibrate(cfg: RunConfig) -> int:
    space = _mode_space(cfg)
    calib = calibrate(space)
    payload = {"space": space.to_config(), "calibration": calib.to_record()}
    _write_json(Path(cfg.out) / "calibration.json", payload)
    lam = complex(calib.lambda_)
    print(f"calibration: lambda = {lam.real:+.12g}{lam.imag:+.12g}i  "
          f"c2 = {calib.c2}")
    return 0


def _verified_state(cfg: RunConfig, t: float):
    space = _mode_space(cfg)
    calib = calibrate(space)
    v_hat = _initial_layer(cfg, space)
    return evolution_functional(space, v_hat, t, calibration=calib)


def _cmd_verify_first_order(cfg: RunConfig) -> int:
    t = 1.0 if cfg.time is None else cfg.time
    report = first_order_residual(_verified_state(cfg, t), tol_coeff=cfg.tol_coeff,
                                  tol_numeric=cfg.tol_numeric, seed=cfg.seed)
    ok = _emit(report, Path(cfg.out), "first_order")
    return 0 if ok else 1


def _cmd_verify_schrodinger(cfg: RunConfig) -> int:
    t = 1.0 if cfg.time is None else cfg.time
    report = schrodinger_residual(_verified_state(cfg, t), tol_coeff=cfg.tol_schrodinger,
                                  tol_spread=cfg.tol_spread,
                                  tol_numeric=cfg.tol_numeric, seed=cfg.seed)
    ok = _emit(report, Path(cfg.out), "schrodinger")
    return 0 if ok else 1


def _cmd_semigroup(cfg: RunConfig) -> int:
    t = 3.0 if cfg.time is None else cfg.time
    space = _mode_space(cfg)
    calib = calibrate(space)
    v_hat = _initial_layer(cfg, space)
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(10):
        cuts = np.sort(rng.uniform(0.0, t, 4))
        parts = np.diff(np.concatenate([[0.0], cuts, [t]]))
        worst = max(worst, semigroup_check(space, v_hat, parts, calibration=calib))
    passed = worst < cfg.tol_coeff
    report = ResidualReport(
        identity="semigroup", numeric_spread=worst,
        params={"num_modes": space.num_modes, "mass": space.mass,
                "box_length": space.box_length, "hbar": space.hbar,
                "t": t, "seed": cfg.seed, "partitions": 10},
        tolerances={"coeff": cfg.tol_coeff},
        verdict="pass" if passed else "fail")
    ok = _emit(report, Path(cfg.out), "semigroup")
    return 0 if ok else 1


def _kernel_csv_rows(p0s, ps, lhs, rhs):
    ratio = np.where(np.abs(rhs) > 0, lhs / np.where(np.abs(rhs) > 0, rhs, 1.0), np.nan)
    rows = []
    for i, p0 in enumerate(p0s):
        for j, p in enumerate(ps):
            rows.append(",".join(repr(float(x)) for x in (
                p0, p, lhs[i, j].real, lhs[i, j].imag,
                rhs[i, j].real, rhs[i, j].imag,
                ratio[i, j].real, ratio[i, j].imag)))
    return rows


def _cmd_oracle_qm(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out)
    grid = _qm_grid(cfg, cfg.qm_omega)
    boundary = BoundaryFactors.vacuum(grid)
    p0s = np.linspace(-3.0, 3.0, 32)
    ps = np.linspace(-3.0, 3.0, 32)
    drive_window, drive = _oracle_drive(cfg)
    cases = [
        ("coincident", 0.0, 0.0, None, cfg.tol_kernel_coincident),
        ("gap_1", 0.0, 1.0, None, cfg.tol_kernel_gap),
        ("driven", drive_window[0], drive_window[1], drive, cfg.tol_kernel_gap),
    ]
    all_ok = True
    summary = {}
    for name, t0, t1, drv, tol in cases:
        lhs = kernel_matrix_solver(grid, boundary, p0s, ps, t0, t1, drv)
        rhs = kernel_matrix_genfunc(p0s, ps, grid.omega, grid.hbar, t0, t1, drv)
        report = compare_kernels(lhs, rhs, tol, params={"case": name, "t0": t0, "t1": t1})
        _write_csv(out_dir / f"kernel_{name}.csv",
                   ["p0", "p", "re_lhs", "im_lhs", "re_rhs", "im_rhs",
                    "ratio_re", "ratio_im"],
                   _kernel_csv_rows(p0s, ps, lhs, rhs), cfg.seed)
        print(f"[{name}] " + report.summary_line())
        summary[name] = report.to_dict()
        all_ok &= report.passed

    # mode bridge: the first two lattice frequencies, each checked as a
    # single oscillator against the advance phase
    space = _mode_space(cfg)
    calib = calibrate(space)
    bridge = {}
    for k in _BRIDGE_MODES:
        om = space.frequency(k)
        g = _qm_grid(cfg, om)
        b = BoundaryFactors.vacuum(g)
        c_a = cross_coefficient_solver(g, b, 1.0, 1.0, 0.0, 0.5)
        c_b = cross_coefficient_solver(g, b, 1.0, 1.0, 0.0, 1.0)
        measured = c_b / c_a
        st = evolution_functional(space, ModeVector.basis(space, k, 1.0), 0.5,
                                  calibration=calib)
        idx = int(np.argmax(np.abs(st.coeffs.b)))
        predicted = complex(advance(st, 0.5).coeffs.b[idx] / st.coeffs.b[idx])
        dev = abs(measured - predicted)
        ok = dev < cfg.tol_bridge
        bridge[f"mode_{k}"] = {"omega": om, "deviation": dev,
                               "verdict": "pass" if ok else "fail"}
        print(f"[bridge k={k}] omega={om:.6f} phase deviation {dev:.3e} "
              f"{'PASS' if ok else 'FAIL'}")
        all_ok &= ok
    summary["bridge"] = bridge
    _write_json(out_dir / "oracle_qm.json", summary)
    return 0 if all_ok else 1


def _cmd_sweep(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out)
    rows = []
    reports = []
    all_ok = True
    for n in cfg.sweep_modes:
        for m in cfg.sweep_masses:
            space = _sweep_space(cfg, n, m)
            calib = calibrate(space)
            v_hat = _initial_layer(cfg, space)
            for t in cfg.sweep_times:
                state = evolution_functional(space, v_hat, float(t), calibration=calib)
                for report in (
                    first_order_residual(state, tol_coeff=cfg.tol_coeff,
                                         tol_numeric=cfg.tol_numeric, seed=cfg.seed),
                    schrodinger_residual(state, tol_coeff=cfg.tol_schrodinger,
                                         tol_spread=cfg.tol_spread,
                                         tol_numeric=cfg.tol_numeric, seed=cfg.seed),
                ):
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
    "verify-first-order": _cmd_verify_first_order,
    "verify-schrodinger": _cmd_verify_schrodinger,
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
        for name in ("modes", "mass", "box_length", "hbar", "time", "seed", "out",
                     "tol_coeff", "tol_numeric", "v_spec", "drive_file"):
            value = getattr(args, name)
            if value is not None:
                setattr(cfg, name, value)
        cfg.validate(args.command)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    return _COMMANDS[args.command](cfg)


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
