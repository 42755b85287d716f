"""Fixture: deterministic leader election — sorted candidates, rank
tie-break, and an unordered walk that only aggregates."""


def promote_first_alive(team):
    # sorted(...) pins the candidate order regardless of set hashing.
    for member in sorted(team.members, key=lambda m: m.rank):
        if member.alive:
            team.promote(member)
            break


def pick_primary(live_replicas):
    primary = None
    for rank in sorted(live_replicas):
        primary = rank
        break
    return primary


def elect(mirrors):
    # min() over a total order is deterministic without iteration.
    best = min(sorted(mirrors))
    return elect_leader(best)


def count_members(team):
    # Unordered iteration that never selects a leader stays clean:
    # aggregation is order-insensitive.
    total = 0
    for _member in set(team.members):
        total += 1
    return total


def elect_leader(candidate):
    return candidate
