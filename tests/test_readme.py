import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    # the ``python`` block under "Library use" must run against the current API
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert 0 <= float(capsys.readouterr().out) <= 1
