"""Determinism regression suite: fixed seed ⇒ byte-identical results.

Every strategy runs twice at a fixed seed, with and without fault
injection, and each run's fingerprint — the full metrics dict, divergence,
end time, and a SHA-256 over the formatted trace lines — must match (a)
the same run repeated in-process, and (b) the committed golden captured
before the kernel hot-path refactor.  Any change to event ordering,
sequence-number consumption, or lock promotion order shows up here first.

The option cases do the same for the constructor options and spec
switches the default constructors leave off (``options_golden.json``).

Regenerate the goldens (only after an *intentional* behaviour change)::

    PYTHONPATH=src python -m tests.determinism_helpers --write
    PYTHONPATH=src python -m tests.determinism_helpers --write-options
"""

import pytest

from tests.determinism_helpers import (
    case_names,
    fingerprint,
    fingerprint_option,
    load_golden,
    load_options_golden,
    option_case_names,
)


@pytest.fixture(scope="module")
def golden():
    data = load_golden()
    assert data, "tests/data/determinism_golden.json is missing or empty"
    return data


@pytest.mark.parametrize("case", case_names())
def test_fixed_seed_run_is_reproducible_and_matches_golden(case, golden):
    first = fingerprint(case)
    second = fingerprint(case)
    assert first == second, f"{case}: same-process repeat diverged"
    assert case in golden, f"{case}: no committed golden (regenerate goldens)"
    assert first == golden[case], (
        f"{case}: run diverged from the pre-refactor golden — the kernel "
        "changed observable behaviour, not just speed"
    )


def test_golden_covers_every_canonical_case(golden):
    assert sorted(golden) == sorted(case_names())


@pytest.fixture(scope="module")
def options_golden():
    data = load_options_golden()
    assert data, "tests/data/options_golden.json is missing or empty"
    return data


@pytest.mark.parametrize("case", option_case_names())
def test_option_path_is_reproducible_and_matches_golden(case, options_golden):
    first = fingerprint_option(case)
    second = fingerprint_option(case)
    assert first == second, f"{case}: same-process repeat diverged"
    assert case in options_golden, f"{case}: no committed golden"
    assert first == options_golden[case], (
        f"{case}: an option path changed observable behaviour"
    )


def test_options_golden_covers_every_option_case(options_golden):
    assert sorted(options_golden) == sorted(option_case_names())
