"""API hygiene: exports resolve, modules are documented, version sane."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import repro

MODULES = [
    name
    for _finder, name, _pkg in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.startswith("repro.__main__")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_importable_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize(
    "module_name",
    [
        "repro",
        "repro.bitops",
        "repro.nfa",
        "repro.sim",
        "repro.ap",
        "repro.core",
        "repro.workloads",
        "repro.experiments",
    ],
)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{module_name} declares no public API"
    for name in exported:
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_version():
    major, _minor, _patch = repro.__version__.split(".")
    assert int(major) >= 1


def test_public_symbols_documented():
    """Every function/class exported from the top packages carries a docstring."""
    import inspect

    for module_name in ["repro.nfa", "repro.sim", "repro.ap", "repro.core"]:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__doc__, f"{module_name}.{name} lacks a docstring"


def test_runtime_entry_points_load_only_numpy():
    """The CLI, the server, a grid worker and the offline pipeline load no
    installed package but numpy, the one runtime dependency
    ``pyproject.toml`` declares; what only the tests need (networkx among
    it) stays out.  Checked in a fresh interpreter, since this one has
    loaded the test dependencies already."""
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    script = textwrap.dedent("""
        import json, site, sys, sysconfig
        before = set(sys.modules)
        import repro.__main__, repro.serve.server, repro.grid.worker
        import repro.experiments.pipeline
        roots = [sysconfig.get_paths()[key] for key in ("purelib", "platlib")]
        roots.append(site.getusersitepackages())
        print(json.dumps(sorted({
            name.partition(".")[0] for name in set(sys.modules) - before
            if (getattr(sys.modules[name], "__file__", None) or "").startswith(tuple(roots))
        })))
    """)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) <= {"numpy", "repro"}
