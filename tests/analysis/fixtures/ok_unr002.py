"""Fixture: simulated-clock use only — clean."""

import time


def stamp(env):
    now = env.now
    time.sleep(0)  # sleep is not a wall-clock *read*
    return now
