"""The report digest of ``scripts/report_digest.py``, pinned.

The script runs a fixed grid of scenarios through the CLI and digests
every report it writes, so a change to any report byte changes the
digest.  A deliberate change updates ``DIGEST`` here and says why in
CHANGES.md.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from qkdsim.protocol import PROTOCOLS

REPO = Path(__file__).resolve().parents[1]
DIGEST = "aa2abb6d57c958c421c71fc10009cf3817fa4d663be888338999900e3e8ae0ad"


def load_script():
    spec = importlib.util.spec_from_file_location("report_digest",
                                                  REPO / "scripts" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_covers_every_compatible_pair():
    pairs = {(protocol, attack) for protocol, attacks in load_script().PAIRS.items()
             for attack in attacks}
    assert pairs == {(protocol.value, kind.value) for protocol, row in PROTOCOLS.items()
                     for kind in row.attacks}


def test_report_digest_is_pinned(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src
    assert load_script().main(REPO, tmp_path) == DIGEST


def test_other_checkout_is_refused(tmp_path):
    """With qkdsim imported from this tree, another checkout is not digested."""
    path = list(sys.path)
    other = tmp_path / "other"
    with pytest.raises(ValueError, match=re.escape(str(other / "src"))) as info:
        load_script().main(other, tmp_path / "out")
    assert str(REPO / "src" / "qkdsim") in str(info.value)
    assert sys.path == path
    assert not (tmp_path / "out").exists()
