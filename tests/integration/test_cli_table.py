"""The CLI's command table: its parser surface, help and failure path.

``cli_surface.json`` pins every subcommand's options (strings, dest,
default, choices, required, nargs, type, action class) and its
mutually exclusive groups, so every command line the CLI accepts keeps
parsing to the same values.  Regenerate it only for a deliberate change
to the command line::

    PYTHONPATH=src:. python -c \
        "from tests.integration.test_cli_table import write_pin; write_pin()"
"""

import argparse
import json
import pathlib

import pytest

from repro.cli import _commands, build_parser, main
from repro.trace.io import write_trace
from repro.trace.synthetic import zipf_trace

PIN = pathlib.Path(__file__).with_name("cli_surface.json")


def parser_surface(parser: argparse.ArgumentParser) -> dict:
    """Every subcommand's options and exclusive groups, JSON-shaped."""
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    surface = {}
    for name, p in sub.choices.items():
        options = [
            {
                "option_strings": list(a.option_strings),
                "dest": a.dest,
                "default": a.default,
                "choices": None if a.choices is None else list(a.choices),
                "required": a.required,
                "nargs": a.nargs,
                "type": getattr(a.type, "__name__", None),
                "action": type(a).__name__,
            }
            for a in p._actions
            if a.dest != "help"
        ]
        exclusive = [
            {
                "dests": [a.dest for a in group._group_actions],
                "required": group.required,
            }
            for group in p._mutually_exclusive_groups
        ]
        surface[name] = {"options": options, "exclusive": exclusive}
    return json.loads(json.dumps(surface))


def write_pin() -> None:
    """Write :data:`PIN` from the current parser, one option per line."""
    lines = ["{"]
    surface = parser_surface(build_parser())
    for i, (name, entry) in enumerate(surface.items()):
        lines.append(f"  {json.dumps(name)}: {{")
        lines.append(f'    "exclusive": {json.dumps(entry["exclusive"])},')
        lines.append('    "options": [')
        rows = [
            "      " + json.dumps(option, sort_keys=True)
            for option in entry["options"]
        ]
        lines.append(",\n".join(rows))
        lines.append("    ]")
        lines.append("  }" + ("," if i < len(surface) - 1 else ""))
    lines.append("}")
    PIN.write_text("\n".join(lines) + "\n", encoding="utf-8")


COMMANDS = [row[0] for row in _commands()]


def test_parser_surface_matches_the_pin():
    pinned = json.loads(PIN.read_text(encoding="utf-8"))
    surface = parser_surface(build_parser())
    assert list(surface) == list(pinned)
    for name in pinned:
        assert surface[name] == pinned[name], name


@pytest.mark.parametrize("command", COMMANDS)
def test_every_row_answers_help(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert f"usage: repro {command}" in capsys.readouterr().out


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "demo.din"
    write_trace(zipf_trace(300, 40, seed=0), path)
    return str(path)


BAD_INPUTS = [
    ["explore", "TRACE", "--budget", "-1"],
    ["profile", "TRACE", "--budget", "-1"],
    ["cost", "TRACE", "--budget", "-1"],
    ["robustness", "TRACE", "--budget", "-1"],
    ["linesize", "TRACE", "--budget", "-1"],
    ["phases", "TRACE", "--budget", "-1"],
    ["hierarchy", "TRACE", "--budget", "-1"],
    ["compare", "TRACE", "--budget", "-1"],
    ["curves", "TRACE", "--depth", "3"],
    ["conflicts", "TRACE", "--depth", "3"],
    ["explore", "MISSING", "--budget", "1"],
    ["stats", "MISSING"],
    ["stream", "TRACE", "--budget", "1"],  # a .din carries no address width
    ["linesize", "TRACE", "--budget", "1", "--lines", "3"],
]


@pytest.mark.parametrize(
    "argv", BAD_INPUTS, ids=[" ".join(argv) for argv in BAD_INPUTS]
)
def test_bad_input_fails_cleanly(argv, trace_file, tmp_path, capsys):
    missing = str(tmp_path / "missing.din")
    argv = [
        {"TRACE": trace_file, "MISSING": missing}.get(arg, arg) for arg in argv
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]} failed: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
