"""Test isolation for the whole suite: the goodness, strong-submodel,
induced-substructure, closure-set, satisfaction-row and row-compiler memos
are emptied before every test, so no test sees work an earlier one left
cached (a memoised verdict would skip the lower layers a test may expect to
run)."""

import pytest

from fmlab import classify, core


@pytest.fixture(autouse=True)
def _empty_memos():
    classify._is_good.cache_clear()
    classify._prec_reports.cache_clear()
    classify._induced.cache_clear()
    classify._intern.cache_clear()
    classify._delta_star.cache_clear()
    core._sat_rows.cache_clear()
    core._compile_rows.cache_clear()
