"""Settings shared by the whole test suite.

Hypothesis draws the same examples on every run (``derandomize``) and keeps
no example database, so reruns repeat each other.  Its storage directory
points at the null device, so the cache of source constants it would write
into ``.hypothesis/`` is skipped (the draws do not depend on it).  Property
tests are timed by the suite's own durations, not a per-example deadline.
"""

import os

from hypothesis import settings

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.devnull)
settings.register_profile("mvolt", derandomize=True, database=None, deadline=None)
settings.load_profile("mvolt")
