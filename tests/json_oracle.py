"""The JSON payloads of ``check``, ``channel`` and ``audit`` as dicts, as a test oracle.

``check`` and ``channel`` write ``json.dumps(payload, indent=2)`` of the same
dicts; the audit writer fills one record template from the summary's table
instead of building them. Tests require all three to produce this text, byte
for byte.
"""

import dataclasses

import numpy as np

from wqent.inequality import SubadditivityReport


def matrix_to_dict(m: np.ndarray) -> dict:
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


_REPORT_KEYS = tuple(f.name for f in dataclasses.fields(SubadditivityReport))


def report_to_dict(report: SubadditivityReport) -> dict:
    """The report's fields in declaration order; shallow, since every field is a float or a bool."""
    return {k: getattr(report, k) for k in _REPORT_KEYS}


def channel_payload(state: np.ndarray, report: SubadditivityReport) -> dict:
    return {"state": matrix_to_dict(state), "report": report_to_dict(report)}


def audit_payload(summary) -> dict:
    dim_a, dim_b = summary.dims
    return {
        "regime": summary.regime,
        "dims": f"{dim_a}x{dim_b}",
        "samples": summary.samples,
        "seed": summary.seed,
        "tolerance": summary.tolerance,
        "min_gap": summary.min_gap,
        "violations": [
            {
                "state": matrix_to_dict(v.state),
                "weight_a": matrix_to_dict(v.weight_a),
                "weight_b": matrix_to_dict(v.weight_b),
                "report": report_to_dict(v.report),
            }
            for v in summary.violations
        ],
    }
