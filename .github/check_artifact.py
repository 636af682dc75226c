"""Validate a CLI artifact against the package's JSON schema.

    python3 .github/check_artifact.py ARTIFACT [MAX_RELATIVE_GAP]

Every record's `value` and `gap`, where present, must be finite. Each
per-measurement error must be its per-qubit twin over the copies: in a
`bounds` artifact every `per_measurement` record's value and gap, and in
a `povm` artifact `weighted_trace_inverse_per_measurement`, to the 12
significant digits the artifacts are written with. With
MAX_RELATIVE_GAP, the artifact must also hold one per-qubit
`nhcrb_sdp` record whose certified bracket (the optimum lies in
[value - gap, value]) has 0 <= gap <= MAX_RELATIVE_GAP * value.
"""

import json
import math
import sys

import jsonschema


def assert_per_qubit_over_copies(per_measurement, per_qubit, copies, where):
    # both sides are rounded to 12 significant digits, so they agree within
    # one unit of the 12th
    want = per_qubit / copies
    assert abs(per_measurement - want) <= 1e-11 * abs(want), where


artifact = json.load(open(sys.argv[1]))
jsonschema.validate(artifact, json.load(open("src/qtradeoff/schemas/artifacts.schema.json")))
records = artifact.get("records", [])
for rec in records:
    assert all(math.isfinite(rec[key]) for key in ("value", "gap") if rec.get(key) is not None), rec
if artifact["kind"] == "bounds":
    twins = {r["name"]: r for r in records if r["normalization"] == "per_qubit"}
    for rec in records:
        if rec["normalization"] == "per_measurement":
            twin = twins[rec["name"]]
            assert rec.keys() == twin.keys(), (rec, twin)
            for key in ("value", "gap"):
                if key in rec:
                    assert_per_qubit_over_copies(rec[key], twin[key], rec["copies"], (rec, twin))
if artifact["kind"] == "povm" and "weighted_trace_inverse_per_qubit" in artifact:
    # a measurement on `copies` qubits acts on dimension 2^copies
    copies = artifact["dim"].bit_length() - 1
    assert_per_qubit_over_copies(artifact["weighted_trace_inverse_per_measurement"],
                                 artifact["weighted_trace_inverse_per_qubit"], copies,
                                 artifact["name"])
if len(sys.argv) > 2:
    rec, = [r for r in records
            if r["name"] == "nhcrb_sdp" and r["normalization"] == "per_qubit"]
    assert 0.0 <= rec["gap"] <= float(sys.argv[2]) * rec["value"], rec
