"""The README's library example runs against the package as it is, its
quoted ingest error is what the CLI prints, and every name that the package
exports resolves."""

import re
from pathlib import Path

import envload
from envload.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    """The one fenced python block of the README's "## Library" section."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    [code] = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    return code


def test_library_example_runs(capsys):
    exec(compile(_library_example(), f"{README} (## Library)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3 and printed[0].startswith("[<FeatureId.")


def test_every_exported_name_resolves():
    assert len(set(envload.__all__)) == len(envload.__all__)
    assert [name for name in envload.__all__ if not hasattr(envload, name)] == []


def test_quoted_ingest_error_is_printed(tmp_path, monkeypatch, capsys):
    # the README's file: a load that is not a number, "abc", on line 3
    [quoted] = re.findall(r"`(error in stage ingest: [^`]*)`", README.read_text())
    monkeypatch.chdir(tmp_path)
    Path("loads.csv").write_text("row_index,load\n0,80.0\n1,abc\n")
    assert main(["run", "--out", "out", "--ingest-loads", "loads.csv"]) == 2
    assert " ".join(quoted.split()) in capsys.readouterr().err.splitlines()
