"""README's python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
FIXTURES = Path(__file__).parent / "fixtures"


def test_python_blocks_run_as_written(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    (tmp_path / "job.mac").write_text((FIXTURES / "helloworld.mac").read_text())
    monkeypatch.chdir(tmp_path)  # the first block reads job.mac from here
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    out = capsys.readouterr().out
    assert out.startswith("# runjob state dump\nattach HelloWorldScriptGen\n")
    assert "run requested for Echo named Hi\n" in out
    assert out.endswith('(\necho hi\n)\nexit 0\n\n')
