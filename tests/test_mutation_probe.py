"""The mutation probe ``mutate_euler.py`` still reaches every function it names.

The probe finds its sites by function name, so a rename or a deletion in
``euler`` would shrink it without an error; these tests load it by path and
check its list against the module, and check that it refuses a site whose
line moved after it was found.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

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


class _Copied(Exception):
    """Raised in place of the probe's first copy of the tree."""


def _tree_with_euler(root: Path, text: str) -> Path:
    path = root / "src" / "expdens" / "euler.py"
    path.parent.mkdir(parents=True)
    path.write_text(text)
    return root


def _refuse_to_copy(*args, **kwargs):
    raise _Copied


@pytest.mark.parametrize("drift", ["# one line more\n", ""])
def test_only_a_drifted_line_is_refused_before_the_copy(tmp_path, monkeypatch, drift):
    probe = _load_probe()
    source = Path(expdens.euler.__file__).read_text()
    mutations = probe.find_mutations(source)
    # the edit lands above every site, so each found line number is stale
    tree = _tree_with_euler(tmp_path, drift + source)
    monkeypatch.setattr(probe.shutil, "copytree", _refuse_to_copy)
    for mutation in (mutations[0], mutations[-1]):
        if drift:
            with pytest.raises(SystemExit, match="no longer reads"):
                probe.run_one(tree, mutation, [], 1.0)
        else:
            with pytest.raises(_Copied):
                probe.run_one(tree, mutation, [], 1.0)


def test_a_line_past_the_end_is_refused(tmp_path, monkeypatch):
    probe = _load_probe()
    source = Path(expdens.euler.__file__).read_text()
    mutation = probe.find_mutations(source)[-1]
    tree = _tree_with_euler(tmp_path, "".join(source.splitlines(True)[: mutation["line"] - 1]))
    monkeypatch.setattr(probe.shutil, "copytree", _refuse_to_copy)
    with pytest.raises(SystemExit, match="no longer reads"):
        probe.run_one(tree, mutation, [], 1.0)
