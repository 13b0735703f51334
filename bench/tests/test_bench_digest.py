import json
import os

import pytest

from digest import tree_digest


def _manifest_text() -> str:
    manifest = {
        "config": {"seeds": [0, 1], "out_dir": "runs/x"},
        "errors": [],
        "nondeterministic": {
            "created_at": "2026-10-17T20:17:00+0000",
            "acquisition_seconds": [{"seed": 0, "strategy": "random", "round": 0,
                                     "seconds": 0.00123}],
        },
        "numpy_version": "2.4.6",
    }
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def _value_span(text: str) -> tuple[int, int]:
    key = '"nondeterministic": '
    start = text.index(key) + len(key)
    return start, json.JSONDecoder().raw_decode(text, start)[1]


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "manifest.json").write_text(_manifest_text())
    (tmp_path / "seed_0").mkdir()
    (tmp_path / "seed_0" / "acquisitions.csv").write_text("round,rank\n0,0.5\n")
    return tmp_path


def _mutated(path, text: str, position: int, char: str) -> str:
    path.write_text(text[:position] + char + text[position + 1:])
    return char


def test_every_byte_outside_nondeterministic_changes_digest(tree):
    base = tree_digest(str(tree))
    for rel in ("manifest.json", os.path.join("seed_0", "acquisitions.csv")):
        path = tree / rel
        text = path.read_text()
        lo, hi = _value_span(text) if rel == "manifest.json" else (len(text), len(text))
        for i in [*range(lo), *range(hi, len(text))]:
            _mutated(path, text, i, chr(ord(text[i]) ^ 1))
            assert tree_digest(str(tree)) != base, (rel, i, text[i])
        path.write_text(text)
    assert tree_digest(str(tree)) == base


def test_no_byte_inside_nondeterministic_changes_digest(tree):
    path = tree / "manifest.json"
    text = path.read_text()
    base = tree_digest(str(tree))
    lo, hi = _value_span(text)
    changed = 0
    for i in range(lo, hi):
        c = text[i]
        if c.isdigit():
            new = str((int(c) + 1) % 10)
        elif c.isalpha():
            new = "b" if c == "a" else "a"
        else:
            continue
        _mutated(path, text, i, new)
        assert tree_digest(str(tree)) == base, (i, c)
        changed += 1
    assert changed > 40
    path.write_text(text[:lo] + '{"created_at": "later", "extra": [1, 2, 3]}' + text[hi:])
    assert tree_digest(str(tree)) == base


def test_paths_and_new_files_change_digest(tree):
    base = tree_digest(str(tree))
    (tree / "seed_0" / "acquisitions.csv").rename(tree / "seed_0" / "acquisition.csv")
    renamed = tree_digest(str(tree))
    assert renamed != base
    (tree / "empty.csv").write_text("")
    assert tree_digest(str(tree)) not in (base, renamed)
