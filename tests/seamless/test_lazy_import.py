"""Importing the solvers (the @jit path) loads only the JIT's modules."""

import os
import subprocess
import sys

LAZY = ("cheader", "cmodule", "static", "cpp_export", "vectorize")


def test_solvers_import_leaves_the_rest_of_seamless_unloaded():
    code = (
        "import sys, repro.solvers\n"
        f"lazy = {LAZY!r}\n"
        "print(sorted(m for m in lazy\n"
        "             if 'repro.seamless.' + m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.strip() == "[]"


def test_every_exported_name_still_resolves():
    import repro.seamless as seamless
    from repro.seamless import vectorize
    for name in seamless.__all__:
        assert getattr(seamless, name) is not None, name
    # the decorator, not the submodule of the same name
    assert seamless.elementwise is vectorize.elementwise
