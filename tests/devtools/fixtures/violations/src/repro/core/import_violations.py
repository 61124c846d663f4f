"""Fixture: every flavor of unused-import violation."""

from __future__ import annotations

import os
import os.path as osp
from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass
class Span:
    bounds: Sequence[int]


def local_import_left_behind() -> int:
    import json

    return 1
