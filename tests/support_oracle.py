"""The support log as it was written before, as a test oracle.

``ln_support_two_where`` takes the log on the support ``x > 1e-12`` with a
compare, two ``np.where`` and a log. Tests require the one-pass kernel to
match it bit for bit.
"""

import numpy as np


def ln_support_two_where(x):
    on = x > 1e-12
    return np.where(on, np.log(np.where(on, x, 1.0)), 0.0)
