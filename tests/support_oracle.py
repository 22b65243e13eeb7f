"""The support log and the diagonal audit mirror as they were written before, as test oracles.

``ln_support_two_where`` takes the log on the support ``x > 1e-12`` with a
compare, two ``np.where`` and a log. ``diagonal_fields_separate_terms`` writes
every term of the diagonal mirror out on its own, on top of that log. Tests
require the one-pass kernel and the shared-term mirror to match them bit for bit.
"""

import numpy as np


def ln_support_two_where(x):
    on = x > 1e-12
    return np.where(on, np.log(np.where(on, x, 1.0)), 0.0)


def diagonal_fields_separate_terms(probs, weights):
    ln, xlnx = ln_support_two_where, lambda x: x * ln_support_two_where(x)
    p1, p2, p3 = probs[:, 0], probs[:, 1], probs[:, 2]
    f1, f2, c1, c2 = weights[:, 0], weights[:, 1], weights[:, 2], weights[:, 3]
    w11, w12, w21 = f1 * c1, f1 * c2, f2 * c1
    s_ab = -(w11 * xlnx(p1) + w12 * xlnx(p2) + w21 * xlnx(p3))
    a1, b1 = p1 + p2, p1 + p3
    s_a = -((w11 * p1 + w12 * p2) * ln(a1) + w21 * p3 * ln(p3))
    s_b = -((w11 * p1 + w21 * p3) * ln(b1) + w12 * p2 * ln(p2))
    lhs = w11 * p1 + w12 * p2 + w21 * p3
    rhs = (f1 * a1 + f2 * p3) * (c1 * b1 + c2 * p2)
    return dict(s_ab=s_ab, s_a=s_a, s_b=s_b, gap=s_a + s_b - s_ab,
                condition_lhs=lhs, condition_rhs=rhs, condition_gap=lhs - rhs)
