"""Kernelize outputs match the committed golden digests (tests/golden)."""

import json
import time

from golden import regen


def test_kernelize_outputs_match_golden_digests():
    want = json.loads(regen.GOLDEN.read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    got = regen.digests()
    assert time.perf_counter() - t0 < 15
    assert got.keys() == want.keys()
    assert [key for key in sorted(want) if got[key] != want[key]] == []
