"""The recorded outputs of tests/golden/outputs.jsonl, recomputed through the
library: every scheme_rate, bound_report field and scheme2 envelope_at
solution (duals and support too) on the test_scheme_rate half-step grids,
one curve CSV per network, and the converse certificate at every direct
oblivious run of those grids, for demand 1..K and its reverse."""

import json

from golden import record


def test_outputs_match_the_recorded_corpus(tmp_path):
    expected = [json.loads(line) for line in record.OUTPUTS.read_text().splitlines()]
    actual = record.outputs(tmp_path)
    assert sum("ms" in r for r in actual) == 338
    assert sum("certify_at" in r for r in actual) == sum("certify_at" in r for r in expected) > 0
    for got, want in zip(actual, expected, strict=True):
        assert got == want, (got["network"], got.get("ms"), got.get("mp"))
