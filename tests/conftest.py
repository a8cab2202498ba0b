"""Test-session set-up shared by every test module.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy is first
imported, so it is set here, before any test module imports numpy.  One
thread is what CI runs with; on a 2-core machine the threaded default is
slower for the small products these tests make.  A value already set in
the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
