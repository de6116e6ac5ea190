import json
import os
import re

from marcz.cli import main

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


def test_run_directory_lists_simulate_files(tmp_path):
    with open(README) as fh:
        text = fh.read()
    section = text[text.index("## Run directory"):text.index("## Library")]
    listed = re.findall(r"^\| `simulate` \| `([^`]+)` \|", section, re.M)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"s": 2, "sigma": 0.8, "n": 64, "window": 128,
                                  "innovation": {"family": "gaussian"}}))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(listed + ["manifest.json"])
