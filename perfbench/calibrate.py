"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared virtual machines whose CPU speed swings by up
to 2x for seconds at a time, as other tenants load the host.  A fixed
kernel of exact rational arithmetic, the same kind of work ratrec does, is
timed between requests; run.py scales each request's time by REFERENCE_S
over the median kernel time of the ten timings around it.  The result reads as
the request's time on the machine at its reference speed, and the
slowdowns the kernel also sees cancel out.  The kernel is part of the
benchmark, so a change to ratrec never changes it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# about the kernel's median time between requests on a shared 2-vCPU Intel Xeon
# virtual machine with Python 3.11, so scaled times read close to typical ones there
REFERENCE_S = 0.003

_COEFFS = [Fraction(3 * i + 1, 2 * i + 3) for i in range(16)]


def _kernel() -> Fraction:
    product = [Fraction(0)] * (2 * len(_COEFFS) - 1)
    for i, a in enumerate(_COEFFS):
        for j, b in enumerate(_COEFFS):
            product[i + j] += a * b
    total = Fraction(0)
    for x in range(1, 9):
        value = Fraction(0)
        for c in product:
            value = value * x + c
        total += value
    return total


def kernel_time() -> float:
    """One kernel run, in seconds."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
