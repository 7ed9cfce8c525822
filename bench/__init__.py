"""One benchmark for the whole stack (see ``bench/README.md``).

Run as ``python3 -m bench --workload NAME --seed N --seconds S --trace 0|1``
from the repository root.  Nothing here is imported by ``repro``; the
benchmark measures every layer from outside, through public entry points.
"""
