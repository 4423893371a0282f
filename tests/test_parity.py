"""The tree's results against the bits pinned in ``PARITY.json``.

A change that moves any pinned entry regenerates the file with
``python3 tools/parity.py pin src PARITY.json`` and names the entries and
why they moved.
"""

import json
from pathlib import Path

import pytest

import extphase
import parity

PINNED = Path(__file__).resolve().parents[1] / "PARITY.json"


def test_every_pinned_entry_keeps_its_bits():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    here = parity.environment()
    moved = {key: (pinned["environment"].get(key), value) for key, value in here.items()
             if pinned["environment"].get(key) != value}
    if moved:
        pytest.skip(f"PARITY.json was pinned in another environment, (pinned, here): {moved}")
    differing, only_pinned, only_here = parity.differences(
        pinned["entries"], parity.hashed(parity.entries(extphase)))
    report = ([f"differs: {key}" for key in differing]
              + [f"only in PARITY.json: {key}" for key in only_pinned]
              + [f"only in this tree: {key}" for key in only_here])
    assert not report, f"{len(report)} entries moved:\n" + "\n".join(report)
