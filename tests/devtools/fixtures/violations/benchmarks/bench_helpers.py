"""Fixture: benchmarks are held to the same import hygiene."""

import numpy as np
import pytest


def scale(values: list[float]) -> float:
    return float(sum(values)) * pytest.approx(1.0).expected
