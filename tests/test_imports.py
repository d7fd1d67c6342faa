import os
import subprocess
import sys

import mixshor


def test_import_leaves_scipy_unloaded():
    # numpy is the only dependency: the sparsity blocks of the
    # entanglement path are found without scipy, and importing the
    # package must not pay for loading it
    src = os.path.dirname(os.path.dirname(mixshor.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, mixshor; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
