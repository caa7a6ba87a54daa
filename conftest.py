"""Test isolation for the whole suite: every memo in the package, that is
every function defined in an fmlab module that has a `cache_clear`, is
emptied before every test, so no test sees work an earlier one left cached
(a memoised verdict would skip the lower layers a test may expect to run).
The sweep finds the memos itself, so a new or renamed one is cleared too."""

import importlib
import pkgutil

import pytest

import fmlab

_MEMOS = []
for info in pkgutil.iter_modules(fmlab.__path__):
    module = importlib.import_module(f"fmlab.{info.name}")
    _MEMOS += [fn for fn in vars(module).values()
               if getattr(fn, "__module__", None) == module.__name__
               and hasattr(fn, "cache_clear")]


@pytest.fixture(autouse=True)
def _empty_memos():
    for memo in _MEMOS:
        memo.cache_clear()
