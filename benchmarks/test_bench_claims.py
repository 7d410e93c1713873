"""The paper's claims, one test per row of :mod:`benchmarks.claims`.

The selected rows' runs, and those of the rows their checks compare
against, are one campaign over every CPU, run once per module; the
``benchmark`` fixture times only each row's judgement.  Each test prints
its row and what every check read (run pytest with ``-s``) and asserts
that every check passed.
"""

import os

import pytest

from benchmarks.claims import CLAIMS, judge, measure, render


@pytest.fixture(scope="module")
def measured(request):
    selected = [item.callspec.params["claim"]
                for item in request.session.items
                if getattr(item, "originalname", None) == "test_claim"]
    return measure(selected, jobs=os.cpu_count() or 1)


@pytest.mark.parametrize("claim", CLAIMS, ids=[claim.id for claim in CLAIMS])
def test_claim(claim, measured, benchmark):
    verdicts = benchmark.pedantic(judge, args=(claim, measured),
                                  rounds=1, iterations=1)
    print()
    print(render(claim, measured[claim.id]))
    for reading, ok in verdicts:
        print(f"{'ok  ' if ok else 'FAIL'} {reading}")
    assert all(ok for _, ok in verdicts), [v for v in verdicts if not v[1]]
