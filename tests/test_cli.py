import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import pseudodyn
from pseudodyn import cli
from pseudodyn.cli import ConfigError, RunConfig, main
from pseudodyn.reports import ResidualReport

COMMANDS = ["calibrate", "verify-first-order", "verify-schrodinger", "semigroup",
            "oracle-qm", "sweep"]


def read_csv_body(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# generated ")
    return "\n".join(lines[1:])


def test_module_run_executes_command(tmp_path):
    out = tmp_path / "r"
    src = str(Path(pseudodyn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pseudodyn.cli", "calibrate",
                           "--out", str(out)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (out / "calibration.json").is_file()


def test_calibrate_writes_record(tmp_path, capsys):
    for hbar in (1.0, 0.5):
        out = tmp_path / repr(hbar)
        assert main(["calibrate", "--out", str(out), "--hbar", repr(hbar)]) == 0
        payload = json.loads((out / "calibration.json").read_text())
        assert payload["calibration"]["lambda_im"] == pytest.approx(np.sqrt(2.0 * hbar))
        # lambda alone: the constant it achieves is first_order_residual's achieved_c2
        assert sorted(payload["calibration"]) == ["lambda_im", "lambda_re"]
        assert payload["space"] == {"num_modes": 16, "box_length": 2.0 * np.pi,
                                    "mass": 1.0, "hbar": hbar}
        # the record is calibrate's number, unrounded, and stdout prints it
        lam = pseudodyn.calibrate(pseudodyn.build_mode_space(16, 2.0 * np.pi, 1.0, hbar))
        assert repr(payload["calibration"]["lambda_re"]) == repr(lam.real)
        assert repr(payload["calibration"]["lambda_im"]) == repr(lam.imag)
        assert capsys.readouterr().out == (
            f"calibration: lambda = {lam.real:+.12g}{lam.imag:+.12g}i\n")


def test_verify_commands_pass(tmp_path):
    out = tmp_path / "r"
    assert main(["verify-first-order", "--out", str(out), "--modes", "8"]) == 0
    assert main(["verify-schrodinger", "--out", str(out), "--modes", "8"]) == 0
    report = json.loads((out / "first_order.json").read_text())
    assert report["verdict"] == "pass"
    assert report["max_q2"] < 1e-12


def test_semigroup_command(tmp_path):
    out = tmp_path / "r"
    assert main(["semigroup", "--out", str(out), "--modes", "8"]) == 0
    report = json.loads((out / "semigroup.json").read_text())
    assert report["verdict"] == "pass"
    assert report["params"]["t"] == 3.0


DATA = Path(__file__).with_name("data")

# (command, flags, config or None[, text]); each must be refused, with text,
# if given, in the message.  A config given as a str is the file's raw
# text, anything else is written as JSON
BAD_INPUTS = [
    ("verify-first-order", ["--mass", "-2"], None),
    ("verify-first-order", ["--v-spec", "single:99"], None),
    ("verify-first-order", ["--v-spec", "single:x"], None),
    ("verify-first-order", [], {"modes": "16"}),
    ("oracle-qm", [], {"qm_dt": 0.5}),
    # NaN passes an `x <= 0` test; the solver would fail after the first write
    ("oracle-qm", [], '{"qm_dt": NaN}'),
    ("sweep", [], {"sweep_modes": [3]}),
    # mode 3 exists on the 16-mode lattice but not on the 2-mode sweep one
    ("sweep", ["--v-spec", "single:3"], {"sweep_modes": [2, 8]}),
    # the mode-bridge grid at omega ~ 20 needs dt <= 5e-4
    ("oracle-qm", ["--mass", "20"], None),
    # [-12, 12] is too small a box for the omega 0.3 vacuum
    ("oracle-qm", [], {"qm_omega": 0.3}),
    # the seed is refused whatever layer it would seed
    ("verify-first-order", ["--v-spec", "zero", "--seed", "-1"], None),
    ("semigroup", ["--v-spec", "single:1", "--seed", "-1"], None),
    ("sweep", ["--v-spec", "zero", "--seed", "-1"], None),
    # times whose exponent overflows
    ("verify-first-order", ["--time", "1e308"], None),
    ("semigroup", ["--time", "inf"], None),
    ("sweep", [], {"sweep_times": [1e308]}),
    # the 32 kernel momenta up to |p| = 3 exceed this grid's band |p| <= 2.09
    ("oracle-qm", [], {"qm_omega": 0.3, "qm_q_min": -30, "qm_q_max": 30,
                       "qm_points": 80, "mass": 0.3, "box_length": 100}),
    ("calibrate", ["--config", str(Path(__file__).with_name("no_such_config.json"))],
     None),
    # lattices that build but cannot be calibrated: lambda^2 overflows or
    # divides by zero, omega^2 overflows a Python float, omega underflows to 0,
    # momenta overflow
    ("calibrate", [], {"hbar": 1e308}),
    ("calibrate", ["--hbar", "inf"], None),
    ("calibrate", [], {"mass": 1e300}),
    ("calibrate", [], {"mass": 1e-200}),
    ("calibrate", [], {"box_length": 1e-300}),
    ("sweep", [], {"sweep_masses": [1e300]}),
    ("sweep", [], {"sweep_masses": [1e-200]}),
    # fields of the wrong type: refused by their rule, not by a comparison
    ("calibrate", [], {"mass": "1.0"}),
    ("calibrate", [], {"tol_coeff": "1e-12"}),
    ("calibrate", [], {"mass": True}),
    # config files that are not a JSON object
    ("calibrate", [], "5"),
    ("calibrate", [], "null"),
    ("calibrate", [], "[1, 2]"),
    ("calibrate", [], '"modes"'),
    # drives with a non-finite sample, and one with no samples at all
    ("oracle-qm", ["--drive-file", str(DATA / "drive_nan.csv")], None),
    ("oracle-qm", ["--drive-file", str(DATA / "drive_inf.csv")], None),
    ("oracle-qm", ["--drive-file", str(DATA / "drive_header_only.csv")], None),
    # an infinite drive time, a window whose step count overflows, and one
    # whose step count is finite but above the step budget
    ("oracle-qm", ["--drive-file", str(DATA / "drive_time_inf.csv")], None),
    ("oracle-qm", ["--drive-file", str(DATA / "drive_time_overflow.csv")], None),
    ("oracle-qm", ["--drive-file", str(DATA / "drive_time_huge.csv")], None,
     "drive_file: ", "step budget"),
    # a step so fine that the fixed windows exceed the step budget
    ("oracle-qm", [], {"qm_dt": 1e-300}, "qm_dt: ", "step budget"),
    # an infinite grid bound, refused by its field before the band check
    ("oracle-qm", [], '{"qm_q_min": -Infinity}', "q_min must be finite"),
    # lattices above the mode cap
    ("verify-first-order", ["--modes", str(2**22 + 2)], None, "num_modes must be at most"),
    ("sweep", [], {"sweep_modes": [8, 2**23]}, "sweep_modes", "num_modes must be at most"),
    # an empty sweep axis checks nothing
    ("sweep", [], {"sweep_modes": []}),
    ("sweep", [], {"sweep_masses": []}),
    ("sweep", [], {"sweep_times": []}),
    # sweep entries are built as given, as modes, mass and time are
    ("sweep", [], {"sweep_modes": [2.5]}),
    ("sweep", [], {"sweep_modes": ["8"]}),
    ("sweep", [], {"sweep_masses": ["1.0"]}),
    ("sweep", [], {"sweep_times": ["1"]}, "must be a real number"),
    # a bool is not a seed, nor is a float
    ("verify-first-order", [], {"seed": True}, "seed: must be an integer"),
    ("sweep", [], {"seed": True}, "seed: must be an integer"),
    ("verify-first-order", [], {"seed": 1.5}, "seed: must be an integer"),
    # the oracle grid's numbers are refused by their rules, not by comparison
    ("oracle-qm", [], {"qm_omega": True}, "must be"),
    ("oracle-qm", [], {"qm_omega": "1"}, "must be"),
    ("oracle-qm", [], {"qm_points": 1024.5}, "must be"),
    ("oracle-qm", [], {"qm_points": True}, "must be"),
    # an infinite tolerance would pass any residual
    ("verify-first-order", ["--time", "1e8", "--tol-numeric", "inf"], None),
    ("calibrate", [], '{"tol_bridge": Infinity}'),
]


def test_invalid_config_rejected_without_report(tmp_path, capsys):
    # exit 2, one stderr line starting 'config error:', no report written
    for i, (command, flags, config, *text) in enumerate(BAD_INPUTS):
        argv = [command] + flags
        if config is not None:
            cfg_path = tmp_path / f"cfg{i}.json"
            cfg_path.write_text(config if isinstance(config, str)
                                else json.dumps(config))
            argv += ["--config", str(cfg_path)]
        out = tmp_path / f"r{i}"
        assert main(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error:"), (argv, err)
        assert len(err.splitlines()) == 1, (argv, err)
        assert all(t in err for t in text), (argv, err)
        assert not out.exists(), argv


NUMBER_FIELDS = [f.name for f in fields(RunConfig)
                 if any(t in f.type for t in ("int", "float", "tuple"))]


@pytest.mark.parametrize("name", NUMBER_FIELDS)
def test_config_number_of_wrong_type_refused_by_its_key(tmp_path, capsys, name):
    # each number, as a string and as a bool, run through the command that
    # builds it; a sweep axis takes one such entry
    command = ("oracle-qm" if name.startswith("qm_") else
               "sweep" if name.startswith("sweep_") else "verify-first-order")
    for i, bad in enumerate(("1", True)):
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps(
            {name: [bad] if name.startswith("sweep_") else bad}))
        out = tmp_path / f"r{i}"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.splitlines()) == 1, err
        keys = err[len("config error: "):].split(": ")[0].split(", ")
        assert name in keys, (bad, err)
        assert "not supported between instances" not in err, (bad, err)
        assert not out.exists()


def test_every_flag_reaches_the_config(monkeypatch):
    seen = []

    def capture(cfg):
        seen.append(cfg)
        return 0

    monkeypatch.setitem(cli._COMMANDS, "calibrate", capture)
    argv, expected = ["calibrate"], {}
    for action in cli._build_parser()._actions:
        if not action.option_strings or action.dest in ("help", "config"):
            continue
        text = {int: "3", float: "0.25"}.get(action.type, "x")
        argv += [action.option_strings[-1], text]
        expected[action.dest] = (action.type or str)(text)
    assert main(argv) == 0
    (cfg,) = seen
    defaults = RunConfig()
    assert all(getattr(defaults, name) != value for name, value in expected.items())
    assert {name: getattr(cfg, name) for name in expected} == expected


@pytest.mark.parametrize("command", COMMANDS)
def test_out_that_is_a_file_refused(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert main([command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: out:"), err
    assert len(err.splitlines()) == 1, err
    assert out.read_text() == "kept\n"


def test_boundary_leak_gives_inconclusive_verdict(tmp_path, capsys):
    # the vacuum fits this box, but the driven evolution reaches its edge.
    # gap_1 is contracted at its midpoint, t = 0.5, which its rows reach
    # well inside the box (the full window's rows met the edge at step 800
    # of 1000); its spread is that of a leak-free box at the same dq
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"qm_q_min": -8, "qm_q_max": 8, "qm_points": 256}))
    out = tmp_path / "r"
    assert main(["oracle-qm", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "oracle_qm.json").read_text())
    verdicts = {name: summary[name]["verdict"] for name in ("coincident", "gap_1", "driven")}
    verdicts.update({k: v["verdict"] for k, v in summary["bridge"].items()})
    assert verdicts == {"coincident": "pass", "gap_1": "pass",
                        "driven": "inconclusive", "mode_0": "pass", "mode_1": "pass"}
    assert summary["driven"]["note"].startswith("boundary leak"), summary["driven"]
    moms = np.linspace(-3.0, 3.0, 32)
    wide = pseudodyn.QMGrid(-12.0, 12.0, 384, 1e-3, 1.0)
    leak_free = pseudodyn.compare_kernels(
        pseudodyn.kernel_matrix_solver(wide, pseudodyn.BoundaryFactors.vacuum(wide),
                                       moms, moms, 0.0, 1.0),
        pseudodyn.kernel_matrix_genfunc(moms, moms, 1.0, 1.0, 0.0, 1.0), 1e-3)
    assert summary["gap_1"]["numeric_spread"] == pytest.approx(
        leak_free.numeric_spread, rel=1e-6)
    assert sorted(p.name for p in out.iterdir()) == ["kernel_coincident.csv",
                                                     "kernel_gap_1.csv",
                                                     "oracle_qm.json"]


def test_bridge_leak_gives_inconclusive_verdict(tmp_path, monkeypatch):
    def leak(*args):
        raise RuntimeError("boundary leak at final time: edge amplitude 1e-07 of peak")

    monkeypatch.setattr(cli, "kernel_matrix_solver", leak)
    monkeypatch.setattr(cli, "cross_coefficient_solver", leak)
    out = tmp_path / "r"
    assert main(["oracle-qm", "--out", str(out)]) == 1
    summary = json.loads((out / "oracle_qm.json").read_text())
    records = [summary[name] for name in ("coincident", "gap_1", "driven")]
    records += summary["bridge"].values()
    assert len(records) == 5
    for record in records:
        assert record["verdict"] == "inconclusive", record
        assert record["note"].startswith("boundary leak"), record
    assert [p.name for p in out.iterdir()] == ["oracle_qm.json"]


@pytest.fixture(scope="module")
def oracle_default(tmp_path_factory):
    """oracle-qm at the default config: its oracle_qm.json and its stdout."""
    out = tmp_path_factory.mktemp("oracle") / "r"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["oracle-qm", "--out", str(out)]) == 0
    return json.loads((out / "oracle_qm.json").read_text()), stdout.getvalue()


def test_oracle_qm_records_are_residual_reports(oracle_default):
    summary, stdout = oracle_default
    assert sorted(summary) == ["bridge", "coincident", "driven", "gap_1"]
    records = {name: summary[name] for name in ("coincident", "gap_1", "driven")}
    records.update(summary["bridge"])
    assert list(records) == ["coincident", "gap_1", "driven", "mode_0", "mode_1"]
    report_fields = {f.name for f in fields(ResidualReport)}
    for name, record in records.items():
        assert set(record) == report_fields, name
    lines = stdout.splitlines()
    assert [line[:line.index("] ")] for line in lines] == [f"[{n}" for n in records]
    for line, record in zip(lines, records.values()):
        assert line.split()[1] == f"{record['identity']}:"


def test_bridge_fail_path(tmp_path, oracle_default):
    # a bridge tolerance below the phase deviation fails both modes, and only them
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tol_bridge": 1e-12}))
    out = tmp_path / "r"
    assert main(["oracle-qm", "--config", str(cfg_path), "--out", str(out)]) == 1
    summary = json.loads((out / "oracle_qm.json").read_text())
    default = oracle_default[0]
    for name in ("coincident", "gap_1", "driven"):
        assert summary[name]["verdict"] == "pass", name
    assert sorted(summary["bridge"]) == ["mode_0", "mode_1"]
    for mode, record in summary["bridge"].items():
        assert record["verdict"] == "fail", record
        assert record["tolerances"] == {"bridge": 1e-12}
        assert record["numeric_spread"] == default["bridge"][mode]["numeric_spread"]


def test_config_file_and_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"modes": 8, "mass": 2.0, "seed": 7}))
    cfg = RunConfig.from_file(str(cfg_path))
    assert cfg.modes == 8 and cfg.mass == 2.0 and cfg.seed == 7

    out = tmp_path / "r"
    assert main(["verify-first-order", "--config", str(cfg_path),
                 "--mass", "0.5", "--out", str(out)]) == 0
    report = json.loads((out / "first_order.json").read_text())
    assert report["params"]["mass"] == 0.5          # flag wins
    assert report["params"]["num_modes"] == 8       # file value kept


def test_unknown_config_key_rejected(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"modez": 8}))
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(cfg_path))


def test_malformed_json_diagnostics(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{ not json }")
    with pytest.raises(ConfigError, match=r":1:"):
        RunConfig.from_file(str(cfg_path))
    # valid JSON that is not an object is named as such, not as unknown keys
    for text in ("5", "null", "[1, 2]", '"modes"'):
        cfg_path.write_text(text)
        with pytest.raises(ConfigError, match="expected a JSON object$"):
            RunConfig.from_file(str(cfg_path))


def test_sweep_csv_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "sweep_modes": [2, 4], "sweep_masses": [1.0], "sweep_times": [0.5, 1.0],
    }))
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out1),
                 "--seed", "42"]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out2),
                 "--seed", "42"]) == 0
    assert read_csv_body(out1 / "sweep.csv") == read_csv_body(out2 / "sweep.csv")
    body = read_csv_body(out1 / "sweep.csv")
    assert body.splitlines()[0].startswith("identity,num_modes,")
    # 2 lattices x 2 times x 2 identities
    assert len(body.splitlines()) == 1 + 8
    out3 = tmp_path / "r3"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out3),
                 "--seed", "42", "--v-spec", "zero"]) == 0
    assert read_csv_body(out3 / "sweep.csv") != body


def test_sweep_exit_code_on_failure(tmp_path):
    out = tmp_path / "r"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "sweep_modes": [4], "sweep_masses": [1.0], "sweep_times": [1.0],
        "tol_coeff": 1e-18,   # unreachable, forces a failing verdict
    }))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["verdict"] == "fail"


def test_v_spec_presets(tmp_path):
    out = tmp_path / "r"
    assert main(["verify-first-order", "--out", str(out), "--modes", "8",
                 "--v-spec", "zero"]) == 0
    assert main(["verify-first-order", "--out", str(out), "--modes", "8",
                 "--v-spec", "single:1"]) == 0
    assert main(["verify-first-order", "--out", str(out), "--modes", "8",
                 "--v-spec", "bogus"]) == 2


def _assert_refused(argv, out, capsys, reason):
    assert main(argv + ["--out", str(out)]) == 2, argv
    err = capsys.readouterr().err
    assert err.startswith("config error:"), err
    assert reason in err, err
    assert len(err.splitlines()) == 1, err
    assert not out.exists()


def test_drive_file_finer_than_qm_dt_refused(tmp_path, capsys):
    cases = [
        # 5e-5 sample spacing against the default qm_dt = 1e-3
        (np.arange(201) * 5e-5, "config error: drive_file: dt=0.001 must not exceed"),
        # time running backwards
        (np.linspace(2.0, 0.0, 1001), "config error: drive_file: drive window"),
    ]
    for i, (tt, reason) in enumerate(cases):
        path = tmp_path / f"drive{i}.csv"
        path.write_text("t,value\n"
                        + "".join(f"{t:.17g},{np.sin(t):.17g}\n" for t in tt))
        _assert_refused(["oracle-qm", "--drive-file", str(path)], tmp_path / f"r{i}",
                        capsys, reason)


def test_oracle_qm_at_hbar_other_than_one_passes(tmp_path, capsys):
    # at hbar 2 the default box widens with the vacuum, to +/-12 sqrt(2)
    for hbar in ("0.5", "2"):
        out = tmp_path / f"r{hbar}"
        assert main(["oracle-qm", "--hbar", hbar, "--out", str(out)]) == 0, hbar
        assert capsys.readouterr().err == ""
        summary = json.loads((out / "oracle_qm.json").read_text())
        verdicts = [summary[name]["verdict"]
                    for name in ("coincident", "gap_1", "driven")]
        verdicts += [record["verdict"] for record in summary["bridge"].values()]
        assert verdicts == ["pass"] * 5, hbar


def test_schrodinger_at_hbar_other_than_one_passes(tmp_path):
    out = tmp_path / "r"
    assert main(["verify-schrodinger", "--hbar", "2", "--out", str(out)]) == 0
    report = json.loads((out / "schrodinger.json").read_text())
    assert report["verdict"] == "pass" and report["params"]["hbar"] == 2.0
    assert main(["sweep", "--hbar", "2", "--out", str(out)]) == 0
    sweep = json.loads((out / "sweep.json").read_text())
    assert sweep["verdict"] == "pass"
    assert {r["params"]["hbar"] for r in sweep["reports"]} == {2.0}
