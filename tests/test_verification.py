"""The rows of the verify suite, pinned to the benchmark's reference."""

import json
import math
from pathlib import Path

from haraux import oracle, verification

REFERENCE = (Path(__file__).resolve().parents[1]
             / "perfbench" / "reference" / "certify_verify_rows.json")


def test_rows_match_the_reference():
    # The benchmark's rule: module, check, passed and threshold exactly,
    # measured to rel 1e-6 or a thousandth of the threshold.
    reference = json.loads(REFERENCE.read_text())
    rows = verification.run_checks(seed=oracle.DEFAULT_SEED)
    assert [(r["module"], r["check"]) for r in rows] == [
        (r["module"], r["check"]) for r in reference]
    for row, ref in zip(rows, reference):
        assert (row["passed"], row["threshold"]) == (ref["passed"], ref["threshold"]), row
        assert math.isclose(row["measured"], ref["measured"], rel_tol=1e-6,
                            abs_tol=1e-3 * ref["threshold"]), (row, ref["measured"])
