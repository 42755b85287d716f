"""Fixture: CQ consuming outside the progress engine (UNR007 x5).

``cq.push`` is the producer side and stays legal everywhere.
"""


def side_poller(nic, buf):
    rec = nic.cq.poll()
    batch = nic.cq.poll_batch(limit=4)
    n = nic.cq.poll_batch_into(buf, 4)
    return rec, batch, n


def blocking_drain(env, node):
    record = yield node.nic(0).cq.get()
    yield from node.nic(0).cq.push(record)  # producing is fine
    return record


def side_consumer(job, seen):
    # Takes the queue's one parked-consumer slot from the sweeper.
    return job.nic_of(1).cq.park(seen.append)
