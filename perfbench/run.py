"""Time-to-verdict benchmark for pseudodyn.

Run from the repository root (see perfbench/README.md):

    python3 perfbench/run.py --workload acceptance_grid --seed 1 --seconds 12 --trace 0

One process and one caller in a closed loop: the next check starts only when
the previous verdict is in.  BLAS threads are pinned to at most ``nproc``
before numpy loads.  The library is imported from ``./src`` of the current
directory, never from an installed copy.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics derived from
spans recorded around the library's public functions.  The last line of
standard output is the JSON result; a human-readable table and a machine
note precede it, and the full record (spans included) is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, layer_metrics

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# pass_s is a median, so even a pass longer than the window is repeated.
MIN_WARM_PASSES = 2
# Fresh interpreters started per run: (those that also time the first pass,
# those that only import).  Each gives a setup_s sample; first_pass_s is the
# median of the first kind and the run's own first pass.  A first pass is a
# single noisy sample per process, so the 1 s acceptance_grid pass takes
# many; mode_algebra's 14 s pass takes none beyond its own, to stay in the
# time budget.
FRESH_SAMPLES = {"acceptance_grid": (10, 0), "oracle_kernel": (3, 4),
                 "mode_algebra": (0, 7)}
OUT_DIR = Path(__file__).resolve().parent / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("acceptance_grid", "mode_algebra", "oracle_kernel"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the warm-pass window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes and one set-up import (smoke test)")
    return parser.parse_args(argv)


def _pin_blas_threads() -> int:
    """Cap every BLAS thread variable at nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(nproc, wanted)))
    return nproc


def _time_fresh(workload: str, seed: int, first_pass: bool, smoke: bool):
    """One fresh interpreter (fresh.py): the time from its start to the end
    of ``import pseudodyn``, and its first-pass time or None."""
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "fresh.py"),
           workload, str(seed)]
    cmd += ["--first-pass"] * first_pass + ["--smoke"] * smoke
    start = time.monotonic()
    proc = subprocess.run(cmd, check=True, timeout=170, capture_output=True,
                          text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["import_done"] - start, result.get("first_pass_s")


def _spread_out(*groups):
    """Merge sample lists so that each list's items sit evenly across [0, 1);
    returns (position, item) pairs in position order."""
    return sorted(((j + 0.5) / len(g), item) for g in groups
                  for j, item in enumerate(g))


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _machine_note(nproc: int, seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu, "nproc": nproc, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "seed": seed,
        "note": "byte counts are computed from array sizes, not measured",
    }


class Tally:
    """The checks of the workload and their verdicts, and the worst value of
    each diagnostic over the run; outcomes are not kept.

    Every pass repeats the same checks on the same inputs, so ``attempted``
    and ``failed`` count the checks of one pass: they depend on the seed
    alone, not on how many passes fit in the window.  Every later pass must
    give the same verdicts; one that does not makes the run unsound.
    """

    def __init__(self):
        self.verdicts = None
        self.unsound = self.unstable = 0
        self.by_kind: dict[str, list[int]] = {}
        self.worst: dict[str, float] = {}

    def add(self, outcomes):
        verdicts = [(o.kind, o.passed) for o in outcomes]
        if self.verdicts is None:
            self.verdicts = verdicts
            for kind, passed in verdicts:
                counts = self.by_kind.setdefault(kind, [0, 0])
                counts[0] += 1
                counts[1] += not passed
        self.unstable += verdicts != self.verdicts
        for o in outcomes:
            self.unsound += not o.sound
            for key, value in o.diagnostics.items():
                self.worst[key] = max(value, self.worst.get(key, value))

    @property
    def attempted(self) -> int:
        return len(self.verdicts or ())

    @property
    def failed(self) -> int:
        return sum(not passed for _, passed in self.verdicts or ())


def _per_layer(tracer, tally, untraced, traced) -> dict:
    per_pass = [layer_metrics(spans) for spans in tracer.passes]
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        # counts repeat exactly from pass to pass; times take the median
        metrics[name] = (values[-1] if unit in ("count", "B")
                         else statistics.median(values), unit)

    for name, key in (("propagator.worst_rel_error", "rel_error"),
                      ("verifier.worst_coeff_headroom", "coeff_headroom"),
                      ("verifier.worst_fd_headroom", "fd_headroom"),
                      ("qm_oracle.worst_spread_headroom", "spread_headroom")):
        metrics[name] = (tally.worst.get(key, 0.0), "ratio")
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / statistics.median(untraced), "ratio")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    src = Path.cwd() / "src"
    if not (src / "pseudodyn" / "__init__.py").is_file():
        print("perfbench: no ./src/pseudodyn here; run from the repository root",
              file=sys.stderr)
        return 2
    nproc = _pin_blas_threads()
    sys.path.insert(0, str(src))
    import pseudodyn
    from pseudodyn import reports

    if src.resolve() not in Path(pseudodyn.__file__).resolve().parents:
        print(f"perfbench: imported pseudodyn from {pseudodyn.__file__}, not ./src",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS  # imports numpy: only after the BLAS pin

    run_pass = WORKLOADS[args.workload](pseudodyn, reports, args.seed, args.smoke)
    tracer = Tracer()

    tally = Tally()
    start = time.perf_counter()
    outcomes = run_pass()
    first_passes = [time.perf_counter() - start]
    tally.add(outcomes)

    # Fresh-interpreter samples (set-up imports, further first passes) are
    # spread through the warm-pass window instead of run before it: this
    # host's speed drifts by tens of percent over tens of seconds, and
    # spreading makes every metric sample the same stretch of it.  Their
    # time does not count toward the window.  Traced runs skip them.
    setups, pending = [], []
    if not args.trace:
        with_pass, import_only = FRESH_SAMPLES[args.workload]
        if args.smoke:
            with_pass, import_only = min(with_pass, 1), min(import_only, 1)
        pending = _spread_out([True] * with_pass, [False] * import_only)

    untraced, traced = [], []
    window, sampling = time.perf_counter(), 0.0
    while (len(untraced) < MIN_WARM_PASSES
           or time.perf_counter() - window - sampling < args.seconds):
        start = time.perf_counter()
        outcomes = run_pass()
        untraced.append(time.perf_counter() - start)
        tally.add(outcomes)
        if args.trace:
            with tracer.installed():
                start = time.perf_counter()
                outcomes = run_pass()
                traced.append(time.perf_counter() - start)
            tally.add(outcomes)
        progress = (time.perf_counter() - window - sampling) / args.seconds
        last = len(untraced) >= MIN_WARM_PASSES and progress >= 1.0
        while pending and (pending[0][0] <= progress or last):
            start = time.perf_counter()
            setup, first = _time_fresh(args.workload, args.seed,
                                       pending.pop(0)[1], args.smoke)
            setups.append(setup)
            if first is not None:
                first_passes.append(first)
            sampling += time.perf_counter() - start

    attempted, failed = tally.attempted, tally.failed
    if attempted == 0:
        print("perfbench: the workload produced no verdicts", file=sys.stderr)
        return 1
    if tally.unstable:
        print(f"perfbench: {tally.unstable} passes changed a verdict of the first",
              file=sys.stderr)
    correct = tally.unsound == 0 and tally.unstable == 0

    if args.trace:
        metrics = _per_layer(tracer, tally, untraced, traced)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "first_pass_s": (statistics.median(first_passes), "s"),
            "pass_s": (statistics.median(untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "check_pass_share": ((attempted - failed) / attempted, "ratio"),
        }

    machine = _machine_note(nproc, args.seed)
    passes = {"setup_s": setups, "first_s": first_passes, "untraced_s": untraced,
              "traced_s": traced}
    checks = {k: {"attempted": n, "failed": f}
              for k, (n, f) in sorted(tally.by_kind.items())}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"warm passes {len(untraced)} untraced, {len(traced)} traced")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    print(f"  {'fail_share':44s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} checks)")
    for kind, counts in checks.items():
        print(f"    {kind:42s} {counts['failed']} failed of {counts['attempted']}")
    print("machine " + json.dumps(machine, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "passes": passes, "checks": checks,
              "worst": tally.worst,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "spans": tracer.passes}
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
