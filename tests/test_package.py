"""Package-level hygiene: exception hierarchy, exports, examples, reachability."""

import ast
import functools
import importlib
import os
import pathlib
import py_compile
import subprocess
import sys

import pytest

import repro
from repro import errors

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"


class TestErrorHierarchy:
    def test_every_error_derives_from_repro_error(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            if name == "ReproError" or not isinstance(cls, type):
                continue  # helpers like annotate_strategy are exported too
            assert issubclass(cls, errors.ReproError), name

    def test_dual_inheritance_for_stdlib_compat(self):
        """Key errors also subclass the stdlib types callers expect."""
        assert issubclass(errors.DivisionByZeroError, ZeroDivisionError)
        assert issubclass(errors.UnknownNodeError, KeyError)
        assert issubclass(errors.UnknownChunkError, KeyError)
        assert issubclass(errors.ConfigurationError, ValueError)
        assert issubclass(errors.InvalidCodeParametersError, ValueError)

    def test_branch_structure(self):
        assert issubclass(errors.SingularMatrixError, errors.CodingError)
        assert issubclass(errors.NoValidSolutionError, errors.RecoveryError)
        assert issubclass(errors.PlacementError, errors.ClusterError)
        assert issubclass(errors.FlowError, errors.SimulationError)

    def test_catching_base_class_is_sufficient(self):
        from repro.gf.field import GF8

        with pytest.raises(errors.ReproError):
            GF8.inv(0)


class TestRootExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackages_importable(self):
        for pkg in (
            "repro.gf",
            "repro.erasure",
            "repro.cluster",
            "repro.recovery",
            "repro.network",
            "repro.sim",
            "repro.workloads",
            "repro.analysis",
            "repro.experiments",
            "repro.cli",
        ):
            importlib.import_module(pkg)

    def test_subpackage_all_exports_resolve(self):
        for pkg_name in (
            "repro.gf",
            "repro.erasure",
            "repro.cluster",
            "repro.recovery",
            "repro.network",
            "repro.sim",
            "repro.workloads",
            "repro.analysis",
            "repro.experiments",
        ):
            pkg = importlib.import_module(pkg_name)
            for name in getattr(pkg, "__all__", []):
                assert hasattr(pkg, name), f"{pkg_name}.{name}"


class TestImportGraph:
    def test_the_cli_loads_no_process_pool(self):
        """Stage A runs on threads: starting the CLI imports neither
        ``multiprocessing`` nor the process-pool executor.  A fresh
        interpreter, because this one's test modules may import them."""
        probe = (
            "import sys, repro.cli; print(sorted("
            "{'multiprocessing', 'concurrent.futures.process'}"
            " & set(sys.modules)))"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_the_cli_builds_no_gf16_tables(self):
        """GF(2^16)'s tables take a 65 535-step loop to build; importing
        the CLI (so every process start) builds only the w = 4 and w = 8
        ones, and ``GF16`` is built on first use."""
        probe = (
            "import repro.cli; from repro.gf import tables; "
            "print(sorted(tables._CACHE))"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[4, 8]"


class TestExamples:
    def test_all_examples_compile(self):
        examples = sorted(
            (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
        )
        assert len(examples) >= 3  # the deliverable floor; we ship more
        for path in examples:
            py_compile.compile(str(path), doraise=True)

    def test_examples_have_docstrings_and_main(self):
        examples = (pathlib.Path(__file__).parent.parent / "examples").glob(
            "*.py"
        )
        for path in examples:
            text = path.read_text()
            assert text.lstrip().startswith(("#!", '"""')), path.name
            assert "def main()" in text, path.name
            assert '__name__ == "__main__"' in text, path.name


class TestDocumentation:
    def test_design_and_experiments_docs_exist(self):
        root = pathlib.Path(__file__).parent.parent
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            content = (root / doc).read_text()
            assert len(content) > 1000, doc

    def test_public_modules_have_docstrings(self):
        import pkgutil

        package = importlib.import_module("repro")
        for info in pkgutil.walk_packages(
            package.__path__, prefix="repro."
        ):
            mod = importlib.import_module(info.name)
            assert mod.__doc__, f"{info.name} lacks a module docstring"

    def test_api_index_matches_the_generator(self, monkeypatch):
        """docs/API.md is what ``tools/gen_api_docs.py`` renders today."""
        monkeypatch.syspath_prepend(str(ROOT / "tools"))
        gen_api_docs = importlib.import_module("gen_api_docs")
        assert gen_api_docs.render() == gen_api_docs.API_MD.read_text(), (
            "docs/API.md is stale: run `python tools/gen_api_docs.py`"
        )


#: Modules the rule below condemned when PR 17 wrote it: the only thing
#: holding each one was its own tier-1 test file, and a PR may retire
#: only a few tests (CHANGES.md, PR 17).  The ledger is frozen at these 14
#: names — a module leaves it together with its tests, or subsumed by a
#: path the system needs with its tests re-pointed; none is ever added.
#: In the same state, but reached through a tool: ``repro.obs.regress``
#: with ``tools/bench_compare.py``, which nothing but
#: tests/obs/test_regress.py runs.
LEDGER_AT_PR17 = frozenset(
    {
        "repro.cluster.filestore",
        "repro.cluster.rebalance",
        "repro.cluster.transition",
        "repro.erasure.bitmatrix",
        "repro.erasure.xorcodes",
        "repro.erasure.xorcodes.arraycode",
        "repro.erasure.xorcodes.hybrid",
        "repro.erasure.xorcodes.rdp",
        "repro.erasure.xorcodes.xcode",
        "repro.gf.polynomial",
        "repro.io",
        "repro.recovery.rackfail",
        "repro.recovery.replacement",
        "repro.recovery.weighted",
    }
)

#: What is left of it.  ``repro.recovery.weighted`` went in PR 24: the
#: balancer reads per-rack uplinks from the topology, so what the module
#: did is what the live Algorithm-2 loop does.
PENDING_DELETION = LEDGER_AT_PR17 - {"repro.recovery.weighted"}


#: The ``src/`` modules that name the per-stripe view API — the
#: :class:`~repro.cluster.state.StripeView` object and the
#: ``stripe_view`` / ``views`` / ``from_views`` calls that make and read
#: it.  Every solve runs over ``failure_columns``; these three keep only
#: the surface ``benchmarks/e2e/probes.py`` calls, until the benchmark
#: re-cut empties the set.
VIEW_API_HOLDERS = frozenset(
    {"repro.cluster.state", "repro.recovery.selector", "repro.recovery.balancer"}
)
VIEW_API = frozenset({"StripeView", "stripe_view", "views", "from_views"})


@functools.cache
def _parsed(path):
    return ast.parse(path.read_text())


class TestEveryModuleIsReached:
    """A module stays if the CLI, the benchmark harness, a kept
    reproduction bench, an example or a tool reaches it.  A package
    ``__init__`` re-exporting a name is not a use of it: ``from pkg
    import name`` resolves to the module that *defines* ``name``, and an
    ``__init__``'s own imports are not followed."""

    @staticmethod
    def _modules():
        found = {}
        for path in (SRC / "repro").rglob("*.py"):
            parts = path.relative_to(SRC).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            found[".".join(parts)] = path
        return found

    @staticmethod
    @functools.cache
    def _imports(path):
        """(module, name-or-None) for every import statement in a file."""
        found = []
        for node in ast.walk(_parsed(path)):
            if isinstance(node, ast.Import):
                found += [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found += [(node.module, alias.name) for alias in node.names]
        return found

    def _defining_module(self, modules, module, name):
        if name is None or module not in modules:
            return module
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        for source, imported in self._imports(modules[module]):
            if imported == name and source in modules:
                return self._defining_module(modules, source, name)
        return module

    def _uses(self, modules, path):
        """The ``repro`` modules a file uses, with their parent packages."""
        used = set()
        for module, name in self._imports(path):
            target = self._defining_module(modules, module, name)
            while target in modules:
                used.add(target)
                target = target.rpartition(".")[0]
        return used

    def test_no_module_is_held_up_only_by_its_own_tests(self):
        modules = self._modules()
        frontier = {"repro.cli"}
        for pattern in (
            "benchmarks/e2e/*.py",
            "benchmarks/test_bench_*.py",
            "examples/*.py",
            "tools/*.py",
        ):
            for path in ROOT.glob(pattern):
                frontier |= self._uses(modules, path)
        reached = set()
        while frontier:
            module = frontier.pop()
            reached.add(module)
            if modules[module].name != "__init__.py":
                frontier |= self._uses(modules, modules[module]) - reached
        assert set(modules) - reached == PENDING_DELETION

    def test_the_ledger_only_shrinks(self):
        """A new orphan cannot be parked by adding its name."""
        assert PENDING_DELETION <= LEDGER_AT_PR17

    def test_no_new_module_names_the_view_api(self):
        """A module that starts building or reading ``StripeView`` s
        fails here: a new solve reads the failure's columns."""

        def names_it(node):
            return (
                (isinstance(node, ast.Name) and node.id == "StripeView")
                or (isinstance(node, ast.Attribute) and node.attr in VIEW_API)
                or (
                    isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name in VIEW_API
                )
                or (isinstance(node, ast.alias) and node.name in VIEW_API)
            )

        holders = {
            module
            for module, path in self._modules().items()
            if any(map(names_it, ast.walk(_parsed(path))))
        }
        assert holders <= VIEW_API_HOLDERS
        # The rule sees the holders it was written for.
        assert holders == VIEW_API_HOLDERS
