import re

from conftest import ROOT

README = ROOT / "README.md"


def test_library_use_example_runs(capsys, monkeypatch):
    # the ``python`` block under "Library use" must run against the current API,
    # from the repository root as the README's paths assume
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(code, str(README), "exec"), {})
    assert 0 <= float(capsys.readouterr().out) <= 1
