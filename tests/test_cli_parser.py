"""The ``repro-car`` parser is the ``COMMANDS`` registry and nothing else.

Every (subcommand, flag) pair parses iff the registry declares it, every
documented invocation parses, a bad value or a flag on the wrong
subcommand is a usage error (exit 2, no traceback), and four commands'
stdout is pinned byte for byte to what the flat parser printed.
"""

import functools
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import COMMANDS, SUBCOMMANDS, build_parser, main

ROOT = Path(__file__).resolve().parent.parent


PARSER = build_parser()


def _subparsers():
    return next(
        a for a in PARSER._actions if a.dest == "experiment"
    ).choices


@functools.cache
def _flag_actions():
    """dest -> one argparse action for it, over every subparser."""
    return {
        action.dest: action
        for sub in _subparsers().values()
        for action in sub._actions
        if action.option_strings and action.dest != "help"
    }


def _argv(command, action):
    argv = [command]
    if COMMANDS[command].positional is not None:
        argv.append("some/path")
    argv.append(action.option_strings[0])
    if action.nargs != 0:
        # "2" is a legal int, float, priority, cap list and file name.
        argv.append(action.choices[0] if action.choices else "2")
    return argv


class TestRegistryIsTheParser:
    def test_subcommands_is_the_registrys_help_view(self):
        assert SUBCOMMANDS == {n: c.help for n, c in COMMANDS.items()}
        assert list(_subparsers()) == list(COMMANDS)

    def test_the_root_parser_has_no_flag_of_its_own(self):
        options = [a for a in PARSER._actions if a.option_strings]
        assert [a.dest for a in options] == ["help"]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("dest", sorted(_flag_actions()))
    def test_a_pair_parses_iff_the_registry_declares_it(
        self, command, dest, capsys
    ):
        argv = _argv(command, _flag_actions()[dest])
        if dest in COMMANDS[command].flags:
            args = PARSER.parse_args(argv)
            assert getattr(args, dest) is not None
        else:
            with pytest.raises(SystemExit) as excinfo:
                PARSER.parse_args(argv)
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_defaults_are_the_registrys(self, command):
        argv = [command] + ["p"] * (COMMANDS[command].positional is not None)
        args = vars(PARSER.parse_args(argv))
        declared = dict(COMMANDS[command].flags)
        if "caps" in declared:
            declared["caps"] = (16384, 65536, None)
        assert {k: args[k] for k in declared} == declared
        assert set(args) - set(declared) <= {"experiment", "path"}


def _shell_lines(text):
    """Backslash-continued lines joined, a leading ``$`` prompt dropped."""
    for line in text.replace("\\\n", " ").splitlines():
        yield line.strip().removeprefix("$ ")


def _ci_commands(text):
    """The shell commands of every ``run:`` step of a workflow file."""
    for match in re.finditer(
        r"^( *)run: *([>|]?)(.*)\n((?:\1 +.*\n|\n)*)", text, re.MULTILINE
    ):
        _, style, inline, block = match.groups()
        if style == ">":
            yield " ".join(block.split())
        elif style == "|":
            yield from _shell_lines(block)
        else:
            yield inline


def _documented_invocations():
    import repro.cli

    sources = {"cli.py docstring": _shell_lines(repro.cli.__doc__)}
    for path in [ROOT / "README.md", ROOT / "EXPERIMENTS.md",
                 *sorted((ROOT / "docs").glob("*.md"))]:
        sources[path.name] = _shell_lines(path.read_text())
    sources["ci.yml"] = _ci_commands(
        (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    )
    found = []
    for source, lines in sources.items():
        for line in lines:
            match = re.match(
                r"(?:PYTHONPATH=\S+ )?(?:repro-car|python -m repro\.cli) (.*)",
                line,
            )
            if match:
                argv = shlex.split(match.group(1), comments=True)
                found.append(pytest.param(argv, id=f"{source}:{'_'.join(argv)}"))
    return found


class TestDocumentedInvocations:
    def test_every_source_contributes(self):
        ids = [p.id for p in _documented_invocations()]
        for source in ("cli.py docstring", "README.md", "SERVICE.md",
                       "DURABILITY.md", "OBSERVABILITY.md",
                       "PERFORMANCE.md", "ci.yml"):
            assert any(i.startswith(source) for i in ids), source
        # ci.yml: folded (`run: >`) and literal (`run: |`) steps both.
        assert any("serve_service-out_--stripes_8_--clients_3" in i
                   for i in ids)
        assert any("durable_journal-out/journal.jsonl_--seed_4" in i
                   for i in ids)

    @pytest.mark.parametrize("argv", _documented_invocations())
    def test_it_parses(self, argv):
        assert PARSER.parse_args(argv).experiment in COMMANDS


class TestUsageErrors:
    @pytest.mark.parametrize("argv, complaint", [
        (["bench-service", "out", "--caps", "abc"], "argument --caps"),
        (["serve", "out", "--client-priority", "0.5"],
         "argument --client-priority"),
        (["stream", "--window", "0"], "argument --window"),
    ])
    def test_a_bad_value_is_the_subcommands_usage_error(
        self, argv, complaint, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro-car {argv[0]} ")
        assert complaint in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["fig7", "--crash-after", "3"],
        ["trace", "t.jsonl", "--runs", "2"],
        ["resume", "j.jsonl", "--strategy", "rr"],
    ])
    def test_a_flag_the_handler_never_read_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "Traceback" not in err


#: stdout of the flat parser at 82f2909, captured before it was replaced.
GOLDEN = {
    ("fig7", "--runs", "2", "--stripes", "8"): """\
Figure 7 - cross-rack repair traffic (MB)
CFS   chunk  CAR    RR     saving
----  -----  -----  -----  ------
CFS1  4MB    22.0   64.0   65.6%
CFS1  8MB    44.0   128.0  65.6%
CFS1  16MB   88.0   256.0  65.6%
CFS2  4MB    44.0   112.0  60.7%
CFS2  8MB    88.0   224.0  60.7%
CFS2  16MB   176.0  448.0  60.7%
CFS3  4MB    76.0   236.0  67.8%
CFS3  8MB    152.0  472.0  67.8%
CFS3  16MB   304.0  944.0  67.8%
""",
    ("scrub", "--stripes", "10", "--corrupt", "2", "--seed", "3"): """\
Scrub pass over CFS1 (10 stripes, 2 chunks corrupted)
  checked : 10 stripes
  clean   : 8
  corrupt : 2 (all repaired: yes)
stripe  chunk  outcome
------  -----  --------
3       1      repaired
8       2      repaired
metrics: scrub.findings=2, scrub.passes=1, scrub.stripes=10
""",
    ("longrun", "--stripes", "20", "--seed", "4"): """\
90-day failure trace on CFS2 (17 failures)
strategy     repairs  cross-rack  repair time  event lambda  long-run lambda
-----------  -------  ----------  -----------  ------------  ---------------
RR           17       4.3 GiB     0.8 min      1.190         1.030
CAR          17       1.8 GiB     0.6 min      1.071         1.189
CAR-history  17       1.8 GiB     0.6 min      1.205         1.040
""",
    ("durable", "<journal>", "--seed", "4", "--stripes", "6"): """\
Durable recovery (fresh run) — journal <journal>
  stripes : 4 total = 0 replayed + 4 executed
  replayed: -
  executed: 0, 1, 3, 4
  verified: yes
  traffic : cross-rack 16384 B / intra-rack 49152 B (logical session)
  live    : cross-rack 16384 B / intra-rack 49152 B (this incarnation)
""",
}


class TestOutputIsTheFlatParsers:
    @pytest.mark.parametrize("argv", GOLDEN, ids="_".join)
    def test_stdout_is_byte_identical(self, argv, tmp_path, capsys):
        journal = str(tmp_path / "j.jsonl")
        assert main([journal if a == "<journal>" else a for a in argv]) == 0
        out = capsys.readouterr().out
        assert out.replace(journal, "<journal>") == GOLDEN[argv]
