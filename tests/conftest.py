"""Shared session fixtures plus the acceptance-verdict summary hook."""

import gc

import pytest

from basechange.ffield import make_field
from basechange.rankone import UnitarySpec, build_gl2, build_sl2, build_u2

# The acceptance tests record one (status, detail) verdict per criterion
# number here; the terminal-summary hook prints them as a block at the end
# of the run so the verdicts survive output capture.
ACCEPTANCE_RESULTS: dict[int, tuple[str, str]] = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        status, detail = ACCEPTANCE_RESULTS[num]
        terminalreporter.write_line(
            "criterion %d: %s — %s" % (num, status, detail)
        )


@pytest.fixture(autouse=True)
def unfreeze_after_each_test():
    # cli.main freezes every live object, as a one-command process wants;
    # this process calls main hundreds of times and gets its collector back.
    yield
    gc.unfreeze()


@pytest.fixture(scope="session")
def gl2_q3():
    return build_gl2(make_field(3))


@pytest.fixture(scope="session")
def sl2_q3():
    return build_sl2(make_field(3))


@pytest.fixture(scope="session")
def spec_q3():
    return UnitarySpec(3)


@pytest.fixture(scope="session")
def u2_q3(spec_q3):
    return build_u2(spec_q3)


@pytest.fixture(scope="session")
def gl2_q9():
    return build_gl2(make_field(3, 2))


@pytest.fixture(scope="session")
def spec_q5():
    return UnitarySpec(5)


@pytest.fixture(scope="session")
def u2_q5(spec_q5):
    return build_u2(spec_q5)
