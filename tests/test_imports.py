import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pseudodyn


def test_import_loads_no_scipy():
    # the library depends on numpy alone; scipy is a test-side reference.
    # Importing it starts no thread and loads no thread pool, and neither
    # does a two-chunk oracle run: the caller's thread and one plain thread
    # evolve the rows, and the worker is joined before the call returns.
    # The quadrature oracle's Gauss-Legendre rule is a fixed table, so not
    # even a criterion-1 kernel loads numpy.polynomial (leggauss's LAPACK
    # eigensolve).  Nor does a midpoint-contracted kernel or cross
    # coefficient load numpy.ma (which np.unique, np.union1d and np.isin
    # import, 0.5 MB of RSS) or numpy.random
    src = str(Path(pseudodyn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, threading, pseudodyn\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "assert 'numpy.polynomial' not in sys.modules\n"
            "pseudodyn.richardson_kernel(1.0, 0.7)\n"
            "assert 'numpy.polynomial' not in sys.modules\n"
            "import numpy as np, pseudodyn.qm_oracle as qo\n"
            "qo._available_cpus = lambda: 2\n"
            "g = pseudodyn.QMGrid(-12.0, 12.0, 1024, 1e-3, 1.0)\n"
            "rows = np.tile(pseudodyn.ground_state(g), (16, 1))\n"
            "pseudodyn.propagate_driven(rows, g, 0.0, 0.003)\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
            "b = pseudodyn.BoundaryFactors.vacuum(g)\n"
            "moms = np.linspace(-3.0, 3.0, 16)\n"
            "pseudodyn.kernel_matrix_solver(g, b, moms, moms, 0.0, 0.004)\n"
            "pseudodyn.cross_coefficient_solver(g, b, 1.0, 1.0, 0.0, 0.004)\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "assert 'numpy.random' not in sys.modules\n"
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted fails only at
    # `from module import *`; so does one the package imports
    package = Path(pseudodyn.__file__).parent
    for info in pkgutil.iter_modules([str(package)]):
        exec(f"from pseudodyn.{info.name} import *", {})
    tree = ast.parse((package / "__init__.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    assert [name for name in imported if not hasattr(pseudodyn, name)] == []
