import re

import pytest

import crprolong
from crprolong import catalog
from crprolong.prolong import prolong_full

def pytest_report_header(config):
    # pyproject.toml's pythonpath = ["src"] goes ahead of PYTHONPATH, so this
    # names the checkout under test: a run from this directory tests its src/
    return f"crprolong imported from {crprolong.__path__[0]}"


# ---------------------------------------------------------------------------
# Shared catalog entries and prolongation results.  prolong_full memoizes per
# model, so these fixtures mostly exist to give tests short names and to make
# the expensive computations happen once, up front, per session.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def codim5():
    return catalog.make_codim5()


@pytest.fixture(scope="session")
def codim4():
    return catalog.make_codim4()


@pytest.fixture(scope="session")
def heisenberg():
    return catalog.make_heisenberg()


@pytest.fixture(scope="session")
def extended():
    return catalog.extend_codim(catalog.make_codim5(), 1)


@pytest.fixture(scope="session")
def codim5_result(codim5):
    return prolong_full(codim5.model)


@pytest.fixture(scope="session")
def codim4_result(codim4):
    return prolong_full(codim4.model)


@pytest.fixture(scope="session")
def heisenberg_result(heisenberg):
    return prolong_full(heisenberg.model)


@pytest.fixture(scope="session")
def extended_result(extended):
    return prolong_full(extended.model)


# ---------------------------------------------------------------------------
# Acceptance summary: one PASS/FAIL line per criterion at the end of the run.
# A criterion may be covered by several test items (parametrized cases); any
# failing item marks the criterion FAIL.
# ---------------------------------------------------------------------------

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_results = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    outcome = "PASS" if report.passed else "FAIL"
    if _results.get(num) == "FAIL":
        return
    _results[num] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_results):
        terminalreporter.write_line("criterion %d: %s" % (num, _results[num]))
