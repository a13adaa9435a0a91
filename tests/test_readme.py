"""The README's library example and command lines run as written."""

import re
import shlex
import shutil
from pathlib import Path

from isingworlds.cli import main
from isingworlds.fixtures import fixture_path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    exec(compile(block, str(README), "exec"), {})


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every `isingworlds ...` line of the bash blocks, continuations
    # joined, in a directory holding the files they name; `perfect --jobs`
    # is lowered to the CPU count, so no more workers start than cores
    blocks = re.findall(r"^```bash\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("isingworlds ")]
    assert len(commands) == 6
    shutil.copy(fixture_path("triangle", "beta"), tmp_path / "triangle.beta.graph")
    (tmp_path / "z.txt").write_text("101\n", encoding="utf-8")  # an rc configuration of the triangle
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv
