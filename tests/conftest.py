import tracemalloc

import pytest


def _peak_kib(fn) -> float:
    """tracemalloc peak of one call of ``fn`` in KiB, over the memory held on entry.

    ``fn`` runs once untraced first, so that first-call caches (NumPy's
    and the package's own) are filled and the traced call counts only what
    it allocates itself.
    """
    fn()
    tracemalloc.start()
    try:
        held, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - held) / 1024


@pytest.fixture
def peak_kib():
    """The peak-memory measure every memory test uses: ``peak_kib(fn)``."""
    return _peak_kib
