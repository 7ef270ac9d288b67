"""The mutation probe ``mutate_euler.py`` still reaches every function it names.

The probe finds its sites by function name, so a rename or a deletion in
``euler`` would shrink it without an error; these tests load it by path and
check its list against the module.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import expdens.euler

PROBE_PATH = Path(__file__).resolve().parent / "mutate_euler.py"


def _load_probe():
    spec = importlib.util.spec_from_file_location("mutate_euler", PROBE_PATH)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def test_every_rounding_name_is_an_euler_function():
    probe = _load_probe()
    for name in sorted(probe.ROUNDING):
        # lru_cache wraps zeta_int
        assert inspect.isfunction(inspect.unwrap(getattr(expdens.euler, name, None))), name


def test_list_finds_a_site_in_every_rounding_function(monkeypatch, capsys):
    probe = _load_probe()
    monkeypatch.setattr(sys, "argv", ["mutate_euler.py", "--list"])
    assert probe.main() == 0
    # each site line reads "M<i> <function>:<line> <kind> <mutated line>"
    lines = capsys.readouterr().out.splitlines()[1:]
    found = {line.split()[1].split(":")[0] for line in lines}
    assert probe.ROUNDING <= found, sorted(probe.ROUNDING - found)
    assert "_CUT" in found
