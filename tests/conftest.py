import builtins
import errno
import os

import hypothesis
import pytest

from fedrdp import accountant

# Numerical cases vary wildly in cost (extended-precision escalation,
# quadrature); wall-clock deadlines would only add flakes.
hypothesis.settings.register_profile(
    "numerics", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("numerics")


@pytest.fixture
def half_full_disk(monkeypatch):
    """fail(name) makes each atomic write of a file called name store half
    its data and then fail with ENOSPC; it returns the list of file sizes
    reached before each failure."""
    written = []

    class HalfFullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            written.append(os.path.getsize(self.fh.name))
            raise OSError(errno.ENOSPC, "No space left on device")

    def fail(name):
        def fake_open(file, mode="r", **kwargs):
            fh = builtins.open(file, mode, **kwargs)
            # write_atomic writes name through the temporary file .name.<hex>.tmp
            return HalfFullDisk(fh) if os.path.basename(file).startswith(f".{name}.") else fh

        monkeypatch.setattr(accountant, "open", fake_open, raising=False)
        return written

    return fail
