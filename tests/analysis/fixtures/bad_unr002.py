"""Fixture: wall-clock reads outside obs/profile.py (UNR002 x5)."""

import time
from datetime import datetime


def stamp():
    t0 = time.time()
    t1 = time.perf_counter()
    t2 = time.monotonic_ns()
    t3 = time.time_ns()
    d = datetime.now()
    return t0, t1, t2, t3, d
