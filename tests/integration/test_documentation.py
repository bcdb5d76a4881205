"""Documentation integrity: the docs must describe the repository that exists.

Guards against doc rot: every bench target DESIGN.md names must exist,
every example README.md lists must exist, every CLI subcommand the docs
mention must be registered, and the README's quickstart code must run.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestDesignDocument:
    def test_every_named_bench_exists(self):
        design = _read("DESIGN.md")
        targets = set(re.findall(r"benchmarks/(test_[a-z0-9_]+\.py)", design))
        assert targets, "DESIGN.md must name bench targets"
        for target in targets:
            assert (ROOT / "benchmarks" / target).exists(), target

    def test_every_named_module_exists(self):
        design = _read("DESIGN.md")
        # Module names appear as '    name.py' rows in the inventory.
        modules = set(re.findall(r"^\s+([a-z_]+\.py)\s", design, re.M))
        assert modules
        all_py = {p.name for p in (ROOT / "src" / "repro").rglob("*.py")}
        for module in modules:
            assert module in all_py, module

    def test_mentions_the_paper_check(self):
        assert "Ghosh" in _read("DESIGN.md")


class TestReadme:
    def test_every_listed_example_exists(self):
        readme = _read("README.md")
        examples = set(re.findall(r"examples/([a-z_]+\.py)", readme))
        assert len(examples) >= 8
        for example in examples:
            assert (ROOT / "examples" / example).exists(), example

    def test_every_mentioned_cli_command_is_registered(self):
        from repro.cli import build_parser

        parser = build_parser()
        subcommands = set()
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices:
                subcommands.update(action.choices)
        readme = _read("README.md")
        mentioned = set(re.findall(r"^repro ([a-z-]+)", readme, re.M))
        assert mentioned
        for command in mentioned:
            assert command in subcommands, command

    def test_every_registered_cli_command_is_mentioned(self):
        from repro.cli import _commands

        readme = _read("README.md")
        mentioned = set(re.findall(r"^repro ([a-z-]+)", readme, re.M))
        for name, *_ in _commands():
            assert name in mentioned, name

    def test_quickstart_code_runs(self):
        readme = _read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert blocks, "README must contain a python quickstart"
        namespace = {}
        exec(blocks[0], namespace)  # noqa: S102 - running our own docs
        assert "result" in namespace


class TestDocsDirectory:
    @pytest.mark.parametrize(
        "name",
        ["algorithm.md", "architecture.md", "extensions.md",
         "workloads.md", "isa.md", "api.md"],
    )
    def test_docs_exist_and_are_substantial(self, name):
        text = _read(f"docs/{name}")
        assert len(text) > 1000, name

    def test_extensions_doc_names_real_test_files(self):
        text = _read("docs/extensions.md")
        targets = set(re.findall(r"test_[a-z0-9_]+\.py", text))
        known = {p.name for p in (ROOT / "benchmarks").glob("test_*.py")}
        known |= {p.name for p in (ROOT / "tests").rglob("test_*.py")}
        for target in targets:
            assert target in known, target

    def test_workloads_doc_covers_all_kernels(self):
        from repro.workloads import ALL_WORKLOAD_NAMES

        text = _read("docs/workloads.md")
        for name in ALL_WORKLOAD_NAMES:
            assert f"`{name}`" in text, name


class TestExperimentsDocument:
    def test_every_mentioned_test_target_exists(self):
        """EXPERIMENTS references benches and tests; all must exist."""
        text = _read("EXPERIMENTS.md")
        targets = set(re.findall(r"test_[a-z0-9_]+", text))
        known = {p.stem for p in (ROOT / "benchmarks").glob("test_*.py")}
        known |= {p.stem for p in (ROOT / "tests").rglob("test_*.py")}
        for target in targets:
            matches = [k for k in known if k.startswith(target)]
            assert matches, target
