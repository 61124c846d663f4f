"""Fixture: a package surface re-exports names it never reads itself."""

from repro.core.import_violations import Span
