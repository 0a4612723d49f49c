"""Independent references the benchmark checks the package against.

None of these calls the code it checks: the nuclear norm comes from a
Gram-matrix eigendecomposition, Kendall distance from counting pairs, and
the removal targets from the channel groups and the spec alone.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

# Same tolerance as the package's SVD-vs-eigvalsh acceptance suite.
NUCLEAR_RTOL = 1e-8

# Published (FLOPs, params) of the reference architectures; the counter
# must agree within 2 %.
REFERENCE_COMPLEXITY = {
    "vgg16bn": (313.73e6, 14.98e6),
    "resnet56": (125.49e6, 0.85e6),
    "resnet110": (252.89e6, 1.72e6),
    "googlenet": (1.52e9, 6.15e6),
    "densenet40": (282.00e6, 1.04e6),
}
COMPLEXITY_RTOL = 0.02


def gram_nuclear_norm(a: np.ndarray) -> float:
    """Sum of singular values as square roots of the eigenvalues of the
    smaller Gram matrix."""
    a = np.asarray(a, dtype=np.float64)
    gram = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    return float(np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None)).sum())


def check_nuclear(checks, records, table, seed: int, per_record: int = 2):
    """A seeded sample of channel matrices from each multi-column record
    against the Gram oracle."""
    rng = np.random.default_rng(seed)
    for r in records:
        if r.values.ndim < 4:
            continue  # N x 1 dense neurons never reach the SVD
        c = r.values.shape[1]
        for ch in rng.choice(c, size=min(per_record, c), replace=False):
            a = r.values[:, ch].reshape(r.values.shape[0], -1)
            ref = gram_nuclear_norm(a)
            got = float(table.scores[r.layer_id][ch])
            checks.expect(abs(got - ref) <= NUCLEAR_RTOL * max(ref, 1e-30),
                          f"nuclear score {r.layer_id}[{ch}] N={a.shape[0]}: "
                          f"{got!r} vs oracle {ref!r}")


def kendall_pairs(r1, r2) -> float:
    """Share of id pairs the two rankings order differently."""
    pos1 = {x: i for i, x in enumerate(r1)}
    pos2 = {x: i for i, x in enumerate(r2)}
    pairs = list(combinations(r1, 2))
    flips = sum((pos1[a] < pos1[b]) != (pos2[a] < pos2[b]) for a, b in pairs)
    return flips / len(pairs)


def check_kendall(checks, rows):
    """rows: (ranking_small, ranking_large, distance from the package)."""
    for r1, r2, d in rows:
        ref = kendall_pairs(r1, r2)
        checks.expect(abs(d - ref) <= 1e-12,
                      f"kendall distance {d!r} vs pair count {ref!r}")


def check_plan_target(checks, g, table, spec, the_plan, groups, protected):
    """The plan removes what the spec asks for.

    Candidates are the prunable groups with no protected member and every
    member scored. Where every candidate group is a single channel the
    count must equal the target exactly: per layer floor(r * c), globally
    round(threshold * total). A residual Add ties channels into one group
    that can only leave whole, so there the target is met at group
    granularity: a layer loses at least floor(r * c) and at most the sum
    of floor(r * c) over the layers it is tied to; the global plan stops
    at the first group that reaches the target."""
    cands = [grp for grp in groups
             if grp.prunable
             and not any(lid in protected for lid, _ in grp.slots)
             and all(lid in table.scores for lid, _ in grp.slots)]
    removed = the_plan.removed_slots
    where = f"{spec.mode} plan on {len(g.nodes)}-node graph"
    checks.expect(not any(lid in protected for lid, _ in removed),
                  f"{where}: removes a protected layer's channel")
    if spec.mode == "global":
        total = sum(len(grp.slots) for grp in cands)
        target = int(round(spec.threshold * total))
        n = len(removed)
        last = len(the_plan.removals[-1][0].slots) if the_plan.removals else 0
        checks.expect(target <= n < target + max(last, 1),
                      f"{where}: removed {n}, target {target} (last group {last})")
        return
    k = {}
    tied = {}
    for grp in cands:
        lids = {lid for lid, _ in grp.slots}
        for lid in lids:
            k[lid] = int(np.floor(spec.per_layer_ratios.get(lid, spec.ratio)
                                  * g.nodes[lid].attrs["out"]))
            tied.setdefault(lid, set()).update(lids)
    for lid, want in k.items():
        got = sum(1 for s_lid, _ in removed if s_lid == lid)
        upper = sum(k[t] for t in tied[lid])
        checks.expect(want <= got <= upper,
                      f"{where}: layer {lid} lost {got}, target {want}"
                      + (f" (tied, at most {upper})" if upper != want else ""))
