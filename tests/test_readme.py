"""The `cvqnet` commands shown in README.md run and exit 0.

Every `cvqnet ...` line of the README's sh blocks goes through
`cvqnet.cli.main`, in order, in one fresh working directory.  Files that a
block writes with a `cat > FILE <<'EOF'` heredoc are written first.
"""

import itertools
import re
import shlex
from pathlib import Path

from cvqnet.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SUBCOMMANDS = {"keyrate", "decompose", "sweep", "simulate", "estimate"}


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    subcommands = set()
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        lines = iter(block.splitlines())
        for line in lines:
            heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
            if heredoc:
                body = itertools.takewhile(lambda text: text != "EOF", lines)
                (tmp_path / heredoc[1]).write_text("".join(f"{text}\n" for text in body))
            elif line.startswith("cvqnet "):
                argv = shlex.split(line)[1:]
                assert main(argv) == 0, f"{line}\n{capsys.readouterr().err}"
                subcommands.add(next(a for a in argv if a in SUBCOMMANDS))
    assert subcommands == SUBCOMMANDS
