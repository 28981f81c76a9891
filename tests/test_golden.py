"""Every file of a small fixed run is byte-identical to its committed digest.

``golden.py`` writes the run and holds the command that rewrites
``golden.json``; a change that moves outputs on purpose rewrites it.
"""

import json

import pytest

import golden


def test_every_output_file_matches_its_golden_digest():
    tables = json.loads(golden.GOLDEN.read_text())
    if golden.key() not in tables:
        pytest.skip(f"golden.json has no table for {golden.key()!r}")
    want = tables[golden.key()]
    got = golden.run_digests()
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, f"{len(moved)} of {len(want)} files differ from golden.json: {moved}"
