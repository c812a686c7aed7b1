"""Shared fixtures."""

import random

import pytest

from fractree.verify import verify_suite


@pytest.fixture
def rng():
    return random.Random(987654321)


@pytest.fixture(scope="session")
def full_report():
    return verify_suite("full")
