"""Validate a CLI artifact against the package's JSON schema.

    python3 .github/check_artifact.py ARTIFACT [MAX_RELATIVE_GAP]

Every record's `value` and `gap`, where present, must be finite. With
MAX_RELATIVE_GAP, the artifact must also hold one per-qubit
`nhcrb_sdp` record whose certified bracket (the optimum lies in
[value - gap, value]) has 0 <= gap <= MAX_RELATIVE_GAP * value.
"""

import json
import math
import sys

import jsonschema

artifact = json.load(open(sys.argv[1]))
jsonschema.validate(artifact, json.load(open("src/qtradeoff/schemas/artifacts.schema.json")))
for rec in artifact.get("records", []):
    assert all(math.isfinite(rec[key]) for key in ("value", "gap") if rec.get(key) is not None), rec
if len(sys.argv) > 2:
    rec, = [r for r in artifact["records"]
            if r["name"] == "nhcrb_sdp" and r["normalization"] == "per_qubit"]
    assert 0.0 <= rec["gap"] <= float(sys.argv[2]) * rec["value"], rec
