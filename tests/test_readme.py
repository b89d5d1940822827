import json
import re

from conftest import FESTIVAL_INI, ROOT

from tce.cli import main

README = ROOT / "README.md"


def test_library_use_example_runs(capsys, monkeypatch):
    # the ``python`` block under "Library use" must run against the current API,
    # from the repository root as the README's paths assume
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(code, str(README), "exec"), {})
    assert 0 <= float(capsys.readouterr().out) <= 1


def outputs_table_names():
    """The file names and patterns in the first column of README "Run outputs"."""
    section = README.read_text().split("### Run outputs", 1)[1].split("\n#", 1)[0]
    rows = [line.split(" | ")[0] for line in section.splitlines() if line.startswith("| `")]
    return [name for row in rows for name in re.findall(r"`([^`]+)`", row)]


def name_regex(name):
    """``<u>`` and ``<r>`` stand for ids, ``{a,b}`` for either word."""
    parts = re.split(r"(<[ur]>|\{[^}]*\})", name)
    return "".join(
        r"\d+" if part in ("<u>", "<r>")
        else "(?:" + "|".join(map(re.escape, part[1:-1].split(","))) + ")" if part.startswith("{")
        else re.escape(part)
        for part in parts
    )


def test_outputs_table_names_every_run_file(tmp_path):
    text = FESTIVAL_INI.read_text().replace("user_count = 200\n", "user_count = 6\n")
    (tmp_path / "tiny.ini").write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "tiny.ini"), "--seed", "7", "--out", str(out)]) == 0
    files = [*json.loads((out / "manifest.json").read_text())["files"], "manifest.json"]
    names = outputs_table_names()
    assert "plots/positions_scatter.svg" in names
    unnamed = [f for f in files if not any(re.fullmatch(name_regex(n), f) for n in names)]
    unused = [n for n in names if not any(re.fullmatch(name_regex(n), f) for f in files)]
    assert (unnamed, unused) == ([], [])
