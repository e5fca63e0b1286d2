"""Output checks made from outside the library, and output digests.

Every check is independent of the library's own `validate` flag: the
moments come from `samplequad.rule.sample_moments`, but the residual,
sign, membership, size and nesting tests are computed here.
"""

from __future__ import annotations

import hashlib

import numpy as np

from samplequad.rule import sample_moments

TOL_RESIDUAL = 1e-8


def check_rule(rule, samples, *, base=None) -> list[str]:
    """Problems with one rule built from `samples`; empty when it is valid.

    With `base`, the rule is an extension of it: the base nodes must be
    among its nodes and its node count N+M+1 must obey D <= N+M <= N+D+1
    for a target basis size D+1 and base node count N+1.  Without, it is
    a fixed rule with at most one node per basis function.
    """
    problems = []
    w = np.asarray(rule.weights)
    if not np.all(w >= 0.0):
        problems.append(f"negative weight {w.min():.3e}")
    mu = sample_moments(samples, rule.spec).values
    resid = float(np.abs(rule.vandermonde() @ w - mu).max())
    if not resid <= TOL_RESIDUAL:
        problems.append(f"moment residual {resid:.3e} above {TOL_RESIDUAL:.0e}")
    rows = {row.tobytes() for row in samples.points}
    strangers = sum(row.tobytes() not in rows for row in rule.nodes)
    if strangers:
        problems.append(f"{strangers} nodes are not sample rows")
    size, n = rule.spec.size, rule.n_nodes
    if base is None:
        if n > size:
            problems.append(f"{n} nodes exceed basis size {size}")
    else:
        if not size - 1 <= n - 1 <= (base.n_nodes - 1) + (size - 1) + 1:
            problems.append(
                f"{n} nodes outside [{size}, {base.n_nodes + size}] for an extension"
            )
        if not nests(base, rule):
            problems.append("base nodes are not all nodes of the extension")
    return problems


def check_chain(rules, expected: int) -> list[str]:
    """Problems with a chain of (samples, base, rule), each extending the last.

    A fixed rule is a chain of one with no base.
    """
    problems = []
    if len(rules) != expected:
        problems.append(f"{len(rules)} rules built where {expected} were expected")
    previous = None
    for samples, base, rule in rules:
        if base is not previous:
            problems.append("a chain rule does not extend the rule before it")
        problems += check_rule(rule, samples, base=base)
        previous = rule
    return problems


def nests(small, large) -> bool:
    """Whether every node of `small` is, bit for bit, a node of `large`."""
    large_rows = {row.tobytes() for row in large.nodes}
    return all(row.tobytes() in large_rows for row in small.nodes)


def digest(rules) -> str:
    """Short hash of the nodes and weights of a sequence of rules."""
    h = hashlib.sha256()
    for rule in rules:
        h.update(np.ascontiguousarray(rule.nodes).tobytes())
        h.update(np.ascontiguousarray(rule.weights).tobytes())
    return h.hexdigest()[:16]
