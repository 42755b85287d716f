"""Fixture standing in for the progress engine: parking on a CQ and
draining it IS allowed in core/engine.py — it is the one registered
consumer."""


class Sweeper:
    __slots__ = ("nic", "dispatch", "buf")

    def __init__(self, nic, dispatch):
        self.nic = nic
        self.dispatch = dispatch
        self.buf = [None] * 4
        self.park()

    def park(self):
        record = self.nic.cq.park(self.fire)
        if record is not None:
            self.fire(record)

    def fire(self, record):
        self.dispatch(record)
        for i in range(self.nic.cq.poll_batch_into(self.buf, 4)):
            self.dispatch(self.buf[i])
        self.park()


def legacy_sweep(nic, dispatch):
    record = yield nic.cq.get()
    dispatch(record)
    for extra in nic.cq.poll_batch():
        dispatch(extra)
