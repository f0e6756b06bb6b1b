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
        "aaec548094b685a82437dd9680c432bf9ff0f7bf27832159ff9c2564b6e701e0",
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
