"""Shared session fixtures, reference helpers that several test modules
compare against, and the acceptance-verdict summary hook."""

import gc

import pytest

from basechange import grpcore
from basechange.ffield import make_field
from basechange.rankone import UnitarySpec, build_gl2, build_sl2, build_u2, encode

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


def power(group, g: int, e: int) -> int:
    """g^e in a GroupTable by square and multiply through ``group.mul``:
    the reference for the class power table."""
    if e < 0:
        g, e = group.inv_table[g], -e
    result, base = group.id, g
    while e:
        if e & 1:
            result = group.mul(result, base)
        base = group.mul(base, base)
        e >>= 1
    return result


def matrices(group) -> list:
    """A matrix group's elements as tuples, in index order: its keys
    decoded."""
    return [group.decode(k) for k in group.elements]


def find(group, field, m) -> int:
    """The index of the matrix m, a tuple over field, in a matrix group."""
    return group.index[encode(field, m)]


def retract(field, a: int, sub) -> int:
    """The element of sub that the fixed embedding sends to a."""
    try:
        return field.embedding(sub).index(a)
    except ValueError:
        raise ValueError("element does not lie in the subfield") from None


def norm(field, x: int, sub) -> int:
    """The norm to sub as the product of the Frobenius orbit of x over sub,
    read back in sub."""
    if not field.is_subfield(sub):
        raise ValueError("not a subfield pair")
    acc, y = field.one, x
    for _ in range(field.k // sub.k):
        acc, y = field.mul(acc, y), field.frobenius(y, sub.k)
    return retract(field, acc, sub)


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


@pytest.fixture
def swapped_galois_permutation(monkeypatch):
    """Patch the oracle's Galois permutations: the first one gets the
    targets of the first two classes it moves swapped, so it is no power
    map.  Yields the list of patched permutations, one per table built."""
    real, patched = grpcore._galois_permutations, []

    def swapped(classes, exponent):
        perms = real(classes, exponent)
        perm = list(perms[0])
        a, b = [l for l, target in enumerate(perm) if target != l][:2]
        perm[a], perm[b] = perm[b], perm[a]
        patched.append(tuple(perm))
        return [tuple(perm)] + perms[1:]

    monkeypatch.setattr(grpcore, "_galois_permutations", swapped)
    yield patched
