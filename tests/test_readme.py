import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_example_runs(capsys):
    with open(README) as fh:
        text = fh.read()
    section = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert printed.startswith("label\ts\t0.5")
    assert '"sigma"' in printed
