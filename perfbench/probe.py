"""One fresh-process set-up, as a CLI user pays it on every call.

Imports torsionlab and its CLI and builds the three profiles, then prints the
seconds that took.  ``run.py`` starts this several times with PYTHONPATH set
to the checkout's ``src`` and reports the median paced time as ``setup_s``.
"""

import time

start = time.perf_counter()

import torsionlab  # noqa: E402,F401
from torsionlab import cli  # noqa: E402

profiles = {g: cli.RunConfig(geometry=g).profile() for g in cli.GEOMETRIES}
print(repr(time.perf_counter() - start))
