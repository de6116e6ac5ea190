import json
import os
import re
import shlex

import pytest

from marcz import DEFAULT_EXPONENTS, DEFAULT_S_LIST, InnovationSpec, sample
from marcz.cli import build_parser, main

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


def _listed(command):
    """The file names the README's run-directory table gives `command`."""
    with open(README) as fh:
        text = fh.read()
    section = text[text.index("## Run directory"):text.index("## Library")]
    return re.findall(rf"^\| `{command}` \| `([^`]+)` \|", section, re.M)


def test_run_directory_lists_simulate_files(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"s": 2, "sigma": 0.8, "n": 64, "window": 128,
                                  "innovation": {"family": "gaussian"}}))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        _listed("simulate") + ["manifest.json"])


def test_run_directory_lists_analyze_files(tmp_path, capsys):
    # a per-cell row is expanded over the default grid
    listed = [name.format(s=s, e=f"{e:g}") for name in _listed("analyze")
              for s in DEFAULT_S_LIST for e in DEFAULT_EXPONENTS]
    returns = tmp_path / "returns.csv"
    x = sample(InnovationSpec("student_t", 3.0), 2601, 0)
    returns.write_text("value\n" + "".join(f"{v:.17g}\n" for v in x))
    out = tmp_path / "run"
    assert main(["analyze", "--returns-csv", str(returns), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        set(listed) | {"manifest.json"})


def test_cli_block_parses():
    # a flag removed from the CLI must not stay in the README's examples
    with open(README) as fh:
        text = fh.read()
    block = re.search(r"```sh\n(.*?)```", text[text.index("## CLI"):], re.S).group(1)
    lines = [ln for ln in block.splitlines() if ln.startswith("marcz ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        command = re.sub(r"<\([^)]*\)", "returns.csv", line).split(" > ")[0]
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
