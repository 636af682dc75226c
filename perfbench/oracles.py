"""Output checks that do not depend on the SDP solver.

Each check takes the op (the inputs the benchmark generated) and the artifact
the CLI wrote, and returns None when the artifact passes or a one-line reason
when it does not. The values come from closed forms:

- QCRB per qubit: Tr W - theta' W theta.
- Gill-Massar single-copy bound: (Tr sqrt(J^-1/2 W J^-1/2))^2 with
  J^-1 = I - theta theta'.
- Two-copy collective bound at the origin, per qubit:
  sum_i w_i + sum_{i<j} sqrt(w_i w_j).
- Single-copy bound at the origin, per qubit: (sum_i sqrt(w_i))^2.

A surface scan intersects the halfspaces w . V >= C(w), an outer
approximation of the attainable region. Its vertices therefore lie on or
outside the region (surface residual <= 0), never inside it: a vertex strictly
inside would sit on a supporting plane of a convex set.
"""

import math

import numpy as np

SINGLE_COPY_RTOL = 1e-6
# Artifacts print 12 significant digits.
PRINT_RTOL = 1e-10
SURFACE_TOL = 1e-6
SIMULATE_SIGMAS = 3.0
POOLED_Z_MIN = 5.0


def qcrb(theta, weights):
    t = np.asarray(theta, dtype=float)
    w = np.asarray(weights, dtype=float)
    return float(w.sum() - t @ (w * t))


def gill_massar(theta, weights):
    t = np.asarray(theta, dtype=float)
    vals, vecs = np.linalg.eigh(np.eye(3) - np.outer(t, t))
    root = (vecs * np.sqrt(vals)) @ vecs.T
    inner = root @ np.diag(np.asarray(weights, dtype=float)) @ root
    return float(np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)).sum() ** 2)


def two_copy_origin(weights):
    w = np.asarray(weights, dtype=float)
    r = np.sqrt(w)
    return float(w.sum() + r[0] * r[1] + r[0] * r[2] + r[1] * r[2])


def _record(artifact, name):
    for rec in artifact.get("records", ()):
        if rec["name"] == name and rec["normalization"] == "per_qubit":
            return rec
    return None


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check_bounds(op, artifact):
    sdp = _record(artifact, "nhcrb_sdp")
    if sdp is None:
        return "no per-qubit nhcrb_sdp record"
    value, gap = sdp["value"], sdp.get("gap", 0.0)
    q = qcrb(op.theta, op.weights)
    rec = _record(artifact, "qcrb")
    if rec is None or _rel(rec["value"], q) > PRINT_RTOL:
        return f"qcrb record {rec and rec['value']!r} != closed form {q!r}"
    gm = gill_massar(op.theta, op.weights)
    if op.copies == 1:
        if _rel(value, gm) > SINGLE_COPY_RTOL:
            return f"single-copy bound {value!r} != Gill-Massar {gm!r}"
        return None
    if not any(op.theta):
        analytic = two_copy_origin(op.weights)
        if _rel(value, analytic) > SINGLE_COPY_RTOL:
            return f"two-copy origin bound {value!r} != analytic {analytic!r}"
        return None
    slack = gap + PRINT_RTOL * value
    if not q - slack <= value <= gm + slack:
        return f"two-copy bound {value!r} outside [qcrb {q!r}, Gill-Massar {gm!r}]"
    return None


def origin_bound(weights, copies):
    """Per-qubit collective bound at theta = 0."""
    if copies == 1:
        return float(np.sqrt(np.asarray(weights, dtype=float)).sum() ** 2)
    return two_copy_origin(weights)


def check_surface(op, artifact):
    """Origin scan: closed-form plane offsets, feasible vertices outside the region."""
    planes = artifact.get("planes") or ()
    for plane in planes:
        want = origin_bound(plane["weights"], op.copies)
        if _rel(plane["offset"], want) > PRINT_RTOL:
            return f"plane offset {plane['offset']!r} != closed form {want!r}"
    vertices = artifact.get("vertices") or ()
    residuals = artifact.get("vertex_residuals") or ()
    if not planes or not vertices or len(residuals) != len(vertices):
        return "scan has no planes, vertices or residuals"
    normals = np.array([p["weights"] for p in planes])
    offsets = np.array([p["offset"] for p in planes])
    for v, res in zip(vertices, residuals):
        if np.any(normals @ np.asarray(v) < offsets - SURFACE_TOL):
            return f"vertex {v!r} violates a plane"
        if res > SURFACE_TOL * max(1.0, abs(v[0] * v[1] * v[2])):
            return f"vertex {v!r} inside the attainable region (residual {res!r})"
    return None


def check_simulate(op, artifact):
    q = qcrb(op.theta, op.weights)
    wt, se = artifact["weighted_trace"], artifact["standard_error"]
    if not wt >= q - SIMULATE_SIGMAS * se:
        return f"weighted trace {wt!r} below qcrb {q!r} by more than {SIMULATE_SIGMAS} SE {se!r}"
    return None


_CHECKS = {"bounds": check_bounds, "surface": check_surface,
           "simulate": check_simulate}


def check(op, artifact):
    """Reason the artifact fails its oracle, or None when it passes."""
    if artifact.get("kind") != op.command:
        return f"artifact kind {artifact.get('kind')!r} != {op.command!r}"
    return _CHECKS[op.command](op, artifact)


def origin_z(op, artifact):
    """z against the single-copy bound for an origin opt2 simulate op, else None."""
    if op.command != "simulate" or any(op.theta) or "opt2" not in op.argv:
        return None
    return artifact["metadata"].get("z_vs_single_copy")


def pooled_z(zs):
    return sum(zs) / math.sqrt(len(zs))
