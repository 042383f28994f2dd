"""The recorded outputs of tests/golden/outputs.jsonl, recomputed through the
library: every scheme_rate, bound_report field and scheme2 envelope_at
solution (duals and support too) on the test_scheme_rate half-step grids,
one curve CSV per network, the converse certificate at every direct
oblivious run of those grids, for demand 1..K and its reverse, every
scheme's mixture at every grid point, and every DecodeReport field of the
record.DECODE_RUNS runs at seeds 0 and 1 and of the record.DECODE_K12 runs."""

import json

from golden import record


def test_outputs_match_the_recorded_corpus(tmp_path):
    expected = [json.loads(line) for line in record.OUTPUTS.read_text().splitlines()]
    actual = record.outputs(tmp_path)
    assert sum("ms" in r for r in actual) == 338
    assert sum("certify_at" in r for r in actual) == sum("certify_at" in r for r in expected) > 0
    assert sum("mixture_at" in r for r in actual) == 338
    assert sum("decode_at" in r for r in actual) == \
        2 * len(record.DECODE_RUNS) + len(record.DECODE_K12) == 15
    for got, want in zip(actual, expected, strict=True):
        at = got.get("certify_at") or got.get("mixture_at") or got.get("decode_at")
        assert got == want, (got["network"], got.get("ms"), got.get("mp"), at)
