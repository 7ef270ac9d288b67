"""Machine-speed probe: a fixed amount of work that runs no expdens code.

The benchmark runs this in a fresh interpreter before every pass, and scales
its end-to-end times by the probe's median time in the run (see run.py).
The mix follows the workloads: interpreter start and numpy import, a
pure-Python loop (like the series convolution), and strided numpy updates
over a 32 MB array (like the sieve and oracle-walk segments).  It prints a
checksum so that the work cannot be skipped.
"""

import numpy as np

s = 0
for i in range(300_000):
    s += i * i % 7
a = np.arange(1, 4_000_001, dtype=np.int64)
for p in (2, 3, 5):
    a[p - 1 :: p] //= p
    a[np.flatnonzero(a % p == 0)] //= p
print(s, int(a.sum()))
