"""One fresh interpreter: time ``import pseudodyn`` and, optionally, the
workload's first pass.

``run.py`` starts this from the repository root for its ``setup_s`` and
``first_pass_s`` samples:

    python3 perfbench/fresh.py <workload> <seed> [--first-pass] [--smoke]

It prints one JSON line: ``import_done``, the ``time.monotonic()`` reading
right after ``import pseudodyn`` (the clock is system-wide, so the parent
subtracts its own reading from before the start), and, with
``--first-pass``, ``first_pass_s``.
"""

import sys
import time

sys.path.insert(0, "src")
import pseudodyn  # noqa: E402  (the import is what is timed)

IMPORT_DONE = time.monotonic()


def main(argv) -> int:
    import json

    result = {"import_done": IMPORT_DONE}
    if "--first-pass" in argv:
        from pseudodyn import reports
        from workloads import WORKLOADS

        run_pass = WORKLOADS[argv[0]](pseudodyn, reports, int(argv[1]),
                                      "--smoke" in argv)
        start = time.perf_counter()
        run_pass()
        result["first_pass_s"] = time.perf_counter() - start
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
