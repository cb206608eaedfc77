"""The ``repro-car`` parser is the ``COMMANDS`` registry and nothing else.

Every (subcommand, flag) pair parses iff the registry declares it, the
retired ``--workers`` / ``--shm`` parse nowhere, every documented
invocation parses (or, marked ``# exit 2``, is the usage error it says
it is), a bad value or a flag on the wrong subcommand is the
subcommand's usage error (exit 2, no traceback), and eleven commands'
stdout is pinned byte for byte.
"""

import functools
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import COMMANDS, SUBCOMMANDS, build_parser, main

ROOT = Path(__file__).resolve().parent.parent


PARSER = build_parser()

#: Flags no subcommand takes any more: dest -> the argv tail that used
#: to set it.  ``repro-car`` runs in one process.
RETIRED = {"workers": ["--workers", "2"], "shm": ["--shm"]}


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


def _argv(command, dest):
    argv = [command]
    if COMMANDS[command].positional is not None:
        argv.append("some/path")
    if dest in RETIRED:
        return argv + RETIRED[dest]
    action = _flag_actions()[dest]
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
    @pytest.mark.parametrize("dest", sorted([*_flag_actions(), *RETIRED]))
    def test_a_pair_parses_iff_the_registry_declares_it(
        self, command, dest, capsys
    ):
        argv = _argv(command, dest)
        if dest in COMMANDS[command].flags:
            args = PARSER.parse_args(argv)
            assert getattr(args, dest) is not None
        else:
            with pytest.raises(SystemExit) as excinfo:
                PARSER.parse_args(argv)
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"usage: repro-car {command} ")
            assert "unrecognized arguments" in err

    def test_no_subcommand_takes_a_retired_flag(self):
        assert not _flag_actions().keys() & RETIRED.keys()

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
                rejected = "# exit 2" in match.group(1)
                found.append(pytest.param(
                    argv, rejected, id=f"{source}:{'_'.join(argv)}"
                ))
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

    @pytest.mark.parametrize("argv, rejected", _documented_invocations())
    def test_it_parses(self, argv, rejected, capsys):
        if not rejected:
            assert PARSER.parse_args(argv).experiment in COMMANDS
            return
        with pytest.raises(SystemExit) as excinfo:
            PARSER.parse_args(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith(f"usage: repro-car {argv[0]} ")


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


#: stdout pinned byte for byte: fig7, scrub, longrun and durable as the
#: flat parser printed them at 82f2909, the other sweeps as the
#: process-pool runner printed them at 514c7ff.
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
    ("fig8", "--runs", "2", "--stripes", "8"): """\
Figure 8 - load balancing rate vs iteration steps
CFS   iters  with balancing  without balancing
----  -----  --------------  -----------------
CFS1  10     1.100 ± 0.141   1.350 ± 0.212
CFS1  20     1.100 ± 0.141   1.350 ± 0.212
CFS1  30     1.100 ± 0.141   1.350 ± 0.212
CFS1  40     1.100 ± 0.141   1.350 ± 0.212
CFS1  50     1.100 ± 0.141   1.350 ± 0.212
CFS2  10     1.136 ± 0.091   1.393 ± 0.152
CFS2  20     1.136 ± 0.091   1.393 ± 0.152
CFS2  30     1.136 ± 0.091   1.393 ± 0.152
CFS2  40     1.136 ± 0.091   1.393 ± 0.152
CFS2  50     1.136 ± 0.091   1.393 ± 0.152
CFS3  10     1.270 ± 0.224   1.635 ± 0.112
CFS3  20     1.270 ± 0.224   1.635 ± 0.112
CFS3  30     1.270 ± 0.224   1.635 ± 0.112
CFS3  40     1.270 ± 0.224   1.635 ± 0.112
CFS3  50     1.270 ± 0.224   1.635 ± 0.112
""",
    ("fig9", "--runs", "1", "--stripes", "8"): """\
Figure 9 - recovery time per lost chunk
CFS   chunk  CAR     RR      saving
----  -----  ------  ------  ------
CFS1  4MB    0.120s  0.175s  31.4%
CFS1  8MB    0.241s  0.351s  31.4%
CFS1  16MB   0.481s  0.702s  31.4%
CFS2  4MB    0.164s  0.245s  33.1%
CFS2  8MB    0.328s  0.490s  33.1%
CFS2  16MB   0.656s  0.980s  33.1%
CFS3  4MB    0.222s  0.400s  44.5%
CFS3  8MB    0.443s  0.799s  44.5%
CFS3  16MB   0.887s  1.598s  44.5%
""",
    ("fig10", "--runs", "2", "--stripes", "8"): """\
Figure 10(a) - transmission vs computation time ratio (8MB)
CFS   strategy  transmission  computation
----  --------  ------------  -----------
CFS1  CAR       84.3%         15.7%
CFS1  RR        89.1%         10.9%
CFS2  CAR       84.9%         15.1%
CFS2  RR        90.8%         9.2%
CFS3  CAR       85.6%         14.4%
CFS3  RR        93.5%         6.5%

Figure 10(b) - CAR computation time normalised to RR
CFS   CAR/RR
----  ------
CFS1  1.134
CFS2  1.186
CFS3  1.403
""",
    ("ablation", "--runs", "2"): """\
Ablation - cross-rack traffic decomposition (chunk units)
CFS   strategy       chunks  saving vs RR
----  -------------  ------  ------------
CFS1  RR             205.5
CFS1  MinRack-noAgg  170.0   17.3%
CFS1  Random+Agg     128.5   37.5%
CFS1  CAR            71.0    65.5%
CFS2  RR             333.0
CFS2  MinRack-noAgg  308.0   7.5%
CFS2  Random+Agg     188.5   43.4%
CFS2  CAR            134.0   59.8%
CFS3  RR             664.5
CFS3  MinRack-noAgg  626.5   5.7%
CFS3  Random+Agg     292.0   56.1%
CFS3  CAR            207.0   68.8%

Ablation - recovery time vs core over-subscription (CFS1)
oversub  CAR     RR      saving
-------  ------  ------  ------
1:1      0.116s  0.160s  28.0%
2:1      0.116s  0.209s  44.8%
4:1      0.166s  0.393s  57.8%
8:1      0.303s  0.761s  60.2%

Ablation - greedy (Algorithm 2) vs enumerated optimal lambda
CFS   greedy  optimal  mean gap
----  ------  -------  --------
CFS1  1.111   1.111    0.000
CFS2  1.175   1.175    0.000
CFS3  1.481   1.481    0.000
""",
    ("degraded", "--runs", "2", "--stripes", "8"): """\
Degraded-read latency per lost-chunk request (4MB chunks)
CFS   strategy  mean   p99    max
----  --------  -----  -----  -----
CFS1  CAR       120ms  124ms  124ms
CFS1  RR        151ms  151ms  151ms
CFS2  CAR       159ms  163ms  163ms
CFS2  RR        222ms  223ms  223ms
CFS3  CAR       225ms  237ms  237ms
CFS3  RR        360ms  365ms  365ms
""",
    ("regen", "--runs", "2", "--stripes", "8"): """\
Regenerating codes - per-stripe cross-rack repair cost vs analytic bounds
CFS   strategy   placement     chunk units  bound  lambda         MB @4MB  violations
----  ---------  ------------  -----------  -----  -------------  -------  ----------
CFS1  CAR        random        1.08 ± 0.28  2.00   1.156 ± 0.063  28.0     0
CFS1  RR         random        3.23 ± 0.60  4.00   1.178 ± 0.075  84.0     0
CFS1  RackMSR    rack_aligned  2.00 ± 0.00  2.00   1.000 ± 0.000  40.0     0
CFS1  Piggyback  random        2.50 ± 0.71  4.00   1.092 ± 0.063  65.0     0
CFS2  CAR        random        2.00 ± 0.00  3.00   1.062 ± 0.088  56.0     0
CFS2  RR         random        4.64 ± 0.63  6.00   1.266 ± 0.258  130.0    0
CFS2  RackMSR    rack_aligned  2.00 ± 0.00  2.00   1.098 ± 0.038  44.0     0
CFS2  Piggyback  random        3.86 ± 0.50  6.00   1.319 ± 0.212  108.0    0
CFS3  CAR        random        2.45 ± 0.52  4.00   1.171 ± 0.040  54.0     0
CFS3  RR         random        7.82 ± 0.75  10.00  1.282 ± 0.073  172.0    0
CFS3  RackMSR    rack_aligned  2.00 ± 0.00  2.00   1.000 ± 0.000  36.0     0
CFS3  Piggyback  random        4.91 ± 0.49  7.00   1.605 ± 0.244  108.0    0
""",
    ("landscape", "--runs", "2", "--stripes", "8"): """\
Repair cost per lost chunk (chunk units), CFS2
scheme                   total  cross-rack  storage
-----------------------  -----  ----------  -------
RS + RR                  6.00   4.84        1.50x
RS + CAR                 6.00   2.00        1.50x
LRC(l=2) local, aligned  3.00   0.00        1.83x
PM-MSR (d=10)            2.00   -           1.50x
""",
}


class TestOutputIsTheFlatParsers:
    @pytest.mark.parametrize("argv", GOLDEN, ids="_".join)
    def test_stdout_is_byte_identical(self, argv, tmp_path, capsys):
        journal = str(tmp_path / "j.jsonl")
        assert main([journal if a == "<journal>" else a for a in argv]) == 0
        out = capsys.readouterr().out
        assert out.replace(journal, "<journal>") == GOLDEN[argv]
