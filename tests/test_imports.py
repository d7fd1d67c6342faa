import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import mixshor


@pytest.mark.parametrize("module", ["scipy", "fractions", "decimal"])
def test_import_leaves_scipy_unloaded(module):
    # numpy is the only dependency: the sparsity blocks of the
    # entanglement path are found without scipy, period extraction runs
    # its continued fractions in integers without fractions (and the
    # decimal module it loads), and importing the package must not pay
    # for loading any of them
    src = os.path.dirname(os.path.dirname(mixshor.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, mixshor; print(sorted(m for m in sys.modules if m.split('.')[0] == {module!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_seeded_sweep_leaves_numpy_random_unloaded():
    # Monte Carlo streams are drawn by the package's own Philox pass, so a
    # seeded sweep must not pay for loading numpy.random
    src = os.path.dirname(os.path.dirname(mixshor.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "from mixshor.circuit import InitialStateKind, build_instance\n"
        "from mixshor.experiments import monte_carlo_sweep\n"
        "rows = monte_carlo_sweep(build_instance(15, 2), InitialStateKind.PURE, 'pauli', [0.0, 0.3], 40, False, 7)\n"
        "assert rows[0].runs == 40\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_export_lists_name_attributes():
    # every name in the package's __all__ and in each submodule's __all__
    # must exist there: an entry left behind by a deletion breaks
    # `from module import *` and misstates the API
    modules = [mixshor] + [
        importlib.import_module(f"mixshor.{info.name}") for info in pkgutil.iter_modules(mixshor.__path__)
    ]
    assert len(modules) > 1
    for module in modules:
        assert module.__all__, module.__name__
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_pyproject_names_the_package():
    # the version is stated in pyproject.toml and in the package, and the
    # console script must name a callable; Python 3.10 has no tomllib, and
    # an installed package has no pyproject.toml beside its source tree
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.dirname(mixshor.__file__)))
    path = os.path.join(root, "pyproject.toml")
    if not os.path.exists(path):
        pytest.skip("no pyproject.toml beside the source tree")
    with open(path, "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["version"] == mixshor.__version__
    module, _, attr = project["scripts"]["mixshor"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
