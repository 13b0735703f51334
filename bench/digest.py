"""SHA-256 of an emitted run tree, leaving out only the manifest's timing.

The value of manifest.json's top-level "nondeterministic" key is cut out
byte for byte; every other byte of every file, and every file's path,
goes into the digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

MANIFEST = "manifest.json"
NONDETERMINISTIC = "nondeterministic"

_WS = re.compile(r"[ \t\n\r]*")


def strip_nondeterministic(raw: bytes) -> bytes:
    """raw with the top-level "nondeterministic" value removed.

    A manifest that does not parse as a JSON object, or has no such key,
    is returned unchanged.
    """
    try:
        text = raw.decode("utf-8")
        decoder = json.JSONDecoder()
        i = _WS.match(text).end()
        if text[i] != "{":
            return raw
        i = _WS.match(text, i + 1).end()
        while text[i] != "}":
            key, i = decoder.raw_decode(text, i)
            i = _WS.match(text, i).end()
            if text[i] != ":":
                return raw
            start = _WS.match(text, i + 1).end()
            _, end = decoder.raw_decode(text, start)
            if key == NONDETERMINISTIC:
                return (text[:start] + text[end:]).encode("utf-8")
            i = _WS.match(text, end).end()
            if text[i] == ",":
                i = _WS.match(text, i + 1).end()
            elif text[i] != "}":
                return raw
    except (UnicodeDecodeError, ValueError, IndexError):
        pass
    return raw


def tree_digest(root: str) -> str:
    files = sorted(
        os.path.relpath(os.path.join(base, name), root).replace(os.sep, "/")
        for base, _, names in os.walk(root)
        for name in names
    )
    h = hashlib.sha256()
    for rel in files:
        with open(os.path.join(root, rel), "rb") as f:
            content = f.read()
        if rel == MANIFEST:
            content = strip_nondeterministic(content)
        h.update(rel.encode("utf-8") + b"\0" + len(content).to_bytes(8, "little"))
        h.update(content)
    return h.hexdigest()
