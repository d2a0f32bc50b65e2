"""The calls-per-event script counts every call cProfile saw, including the
dataclass ``__init__`` calls that ``pstats`` folds under one key."""

from __future__ import annotations

import cProfile
import importlib.util
from dataclasses import dataclass
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "calls_per_event.py"


@pytest.fixture(scope="module")
def calls_per_event():
    spec = importlib.util.spec_from_file_location("calls_per_event", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class _First:
    x: int


@dataclass
class _Second:
    y: int


def test_two_dataclasses_count_every_init(calls_per_event):
    n, m = 3, 5
    profile = cProfile.Profile()
    profile.enable()
    for i in range(n):
        _First(i)
    for i in range(m):
        _Second(i)
    profile.disable()
    counts = calls_per_event.call_counts(profile)
    inits = sum(calls for (_file, _line, name), calls in counts.items() if name == "__init__")
    assert inits == n + m


def test_the_total_is_the_sum_of_the_raw_entries(calls_per_event):
    profile = cProfile.Profile()
    profile.enable()
    _First(1)
    _Second(2)
    len("ab")
    profile.disable()
    counts = calls_per_event.call_counts(profile)
    assert sum(counts.values()) == sum(entry.callcount for entry in profile.getstats())
    assert counts[("~", 0, "<built-in method builtins.len>")] == 1
