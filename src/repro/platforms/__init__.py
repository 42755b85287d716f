"""Experiment platforms (paper Table III) and synthetic level testbeds."""

from .registry import (
    PLATFORMS,
    Platform,
    get_platform,
    make_job,
)

__all__ = ["PLATFORMS", "Platform", "get_platform", "make_job"]
