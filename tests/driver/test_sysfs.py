"""Simulated sysfs: rank status files and listeners."""

from repro.driver.sysfs import STATUS_FREE, SysFs


def test_write_read():
    fs = SysFs()
    fs.write("/sys/foo", "bar")
    assert fs.read("/sys/foo") == "bar"
    assert fs.exists("/sys/foo")
    assert fs.read("/sys/missing") is None


def test_rank_status_roundtrip():
    fs = SysFs()
    fs.set_rank_status(3, busy=True, owner="vm-0.vupmem1")
    assert fs.rank_owner(3) == "vm-0.vupmem1"
    fs.set_rank_status(3, busy=False)
    assert fs.rank_owner(3) == ""
    assert fs.read(fs.rank_status_path(3)) == STATUS_FREE


def test_unknown_rank_not_busy():
    fs = SysFs()
    assert fs.read(fs.rank_status_path(42)) is None
    assert fs.rank_owner(42) == ""


class Events(list):
    def on_write(self, path, content):
        self.append((path, content))


def test_listeners_fire_on_write():
    fs = SysFs()
    events = Events()
    fs.subscribe(events.on_write)
    fs.set_rank_status(0, busy=True, owner="x")
    fs.set_rank_status(0, busy=False)
    assert len(events) == 2
    assert events[0][1].startswith("busy")
    assert events[1][1] == STATUS_FREE
