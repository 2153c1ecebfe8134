"""Shared fixtures: memoized operator caches for the built-in structures
and the n = 6 structure files.  Hypothesis draws the same examples on every
run, so a failing draw reproduces."""

from functools import cache
from pathlib import Path

import pytest
from hypothesis import settings

from nilcoh.catalog import get
from nilcoh.deform import concretize
from nilcoh.dsl import parse, parse_gauss
from nilcoh.linalg import OperatorCache

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

_CACHE = {}
_VALIDATIONS = {}


def validation_for(name):
    """Memoized full validation report for a catalog entry (grids are costly)."""
    if name not in _VALIDATIONS:
        _VALIDATIONS[name] = get(name).spec.validate()
    return _VALIDATIONS[name]


def ops_for(name, **assign):
    """OperatorCache for a catalog entry, optionally at a sample.

    String values go through the scalar parser, so ops_for("example31", t="1/2")
    concretizes the deformation family at t = 1/2.  Caches are shared across
    tests; callers must not mutate them.
    """
    key = (name, tuple(sorted(assign.items())))
    if key not in _CACHE:
        entry = get(name)
        values = {k: parse_gauss(v) for k, v in assign.items()}
        target = entry.family if assign and entry.family is not None else entry.spec
        _CACHE[key] = OperatorCache(concretize(target, values))
    return _CACHE[key]


@pytest.fixture(scope="session")
def ops():
    return ops_for


@cache
def n6_ops_for(path):
    """The operator cache of an n = 6 structure file, named relative to the
    tests directory ("data/torus6.txt")."""
    return OperatorCache(parse((Path(__file__).parent / path).read_text()))
