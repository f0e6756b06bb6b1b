"""The example scripts print exactly what they printed when recorded.

Each script runs with its default arguments, and the SHA-256 of its standard
output is compared with the value recorded for it.  A change that reorders
generators or reformats a line shows up here, not only on a manual run.
"""

import hashlib
import os
import runpy

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")

STDOUT_SHA256 = {
    "cohomology_sweep.py":
        "5e68204c96ab9f10a71346577eb8f3dc4bffbb2b743d2830d9a44d55c191d199",
    "torus_example.py":
        "ca25a7b741b4f2f52b86fa306f1215204f34db6778bb4f0f59a0e067f5776bcf",
    "witt_demo.py":
        "dc212521b133496f292f163cf08170f4751424e77d57bc9ad9aa27dae47fad70",
}


@pytest.mark.parametrize("script", sorted(STDOUT_SHA256))
def test_script_output_is_stable(script, capsys, monkeypatch):
    path = os.path.join(SCRIPTS, script)
    monkeypatch.setattr("sys.argv", [path])
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        STDOUT_SHA256[script], f"{script} printed something else"


@pytest.mark.parametrize("script", sorted(STDOUT_SHA256) + ["bench_ab.py"])
def test_script_takes_help(script, capsys, monkeypatch):
    path = os.path.join(SCRIPTS, script)
    monkeypatch.setattr("sys.argv", [path, "--help"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(path, run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")
