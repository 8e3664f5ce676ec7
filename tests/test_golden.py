"""Kernelize, solve and verify outputs match the committed golden digests
(tests/golden)."""

import json
import time

import pytest

from golden import regen


@pytest.fixture(scope="module")
def recomputed():
    """Every golden file's digests, recomputed within 15 s together."""
    t0 = time.perf_counter()
    got = regen.digests()
    assert time.perf_counter() - t0 < 15
    return got


def check(recomputed, name):
    want = json.loads((regen.HERE / name).read_text(encoding="utf-8"))
    assert regen.changes(want, recomputed[name]) == []


def test_kernelize_outputs_match_golden_digests(recomputed):
    check(recomputed, "kernelize.json")


def test_solve_outputs_match_golden_digests(recomputed):
    check(recomputed, "solve.json")


def test_corpora_outputs_match_golden_digests(recomputed):
    check(recomputed, "corpora.json")
