"""Index-coding converse for the association-oblivious scheme.

For a fixed placement and demand, delivery is an index-coding instance.
An explicit acyclic set of wanted subfiles lower-bounds the optimal code
length, and the achieved rate upper-bounds it; their (always exact)
agreement certifies the delivery as optimal under this placement.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .combin import binom, enumerate_ksubsets
from .model import Association, InfeasibleSchemeError, NetworkConfig, SubfileId, Tier, validate_demand
from .scheme_unknown import place_unknown, rate_unknown, unknown_params


@dataclass(frozen=True)
class ConverseCertificate:
    h1: frozenset
    h2: frozenset
    alpha_lower: Fraction
    kappa_upper: Fraction
    acyclic: bool
    tight: bool


def user_positions(assoc: Association) -> dict[int, int]:
    """Rank of each user when groups are listed in non-increasing-size order."""
    return {user: pos for pos, user in enumerate(assoc.ordered_users(), start=1)}


def build_h(
    config: NetworkConfig, assoc: Association, demand: Sequence[int]
) -> tuple[frozenset, frozenset]:
    """The acyclic certificate set, split into helper-tier and private-tier halves.

    For the file demanded by the user at ordered position p (attached to
    internal helper c), the helper-tier half keeps the subsets avoiding
    helpers 1..c, and the private-tier half keeps the subsets avoiding the
    first p ordered users.
    """
    d = validate_demand(config, demand)
    params = unknown_params(config)
    k, lam = config.num_users, config.num_helpers
    pos = user_positions(assoc)
    ordered = assoc.ordered_users()

    h1 = set()
    if params.f1 > 0:
        for user in range(1, k + 1):
            c = assoc.helper_of(user)
            for tau in enumerate_ksubsets(lam, params.t_s):
                if all(helper > c for helper in tau):
                    h1.add(SubfileId(d[user - 1], Tier.HELPER, tau))
    h2 = set()
    if params.f2 > 0:
        for user in range(1, k + 1):
            p = pos[user]
            allowed = {u for u in ordered if pos[u] > p}
            for rho in enumerate_ksubsets(k, params.t_p):
                if set(rho.elements) <= allowed:
                    h2.add(SubfileId(d[user - 1], Tier.PRIVATE, rho))
    return frozenset(h1), frozenset(h2)


def verify_acyclic(
    config: NetworkConfig,
    assoc: Association,
    demand: Sequence[int],
    subfiles: Iterable[SubfileId],
) -> bool:
    """Topologically sort the side-information digraph induced on the set.

    Each wanted subfile is its own receiver (the per-subfile receiver
    convention); an edge runs from a wanted subfile to every set member in
    that receiver's caches.
    """
    d = validate_demand(config, demand)
    nodes = set(subfiles)
    placement = place_unknown(config)
    edges: dict[SubfileId, set[SubfileId]] = {v: set() for v in nodes}
    for user in range(1, config.num_users + 1):
        side = placement.private_contents[user - 1] | placement.helper_contents[
            assoc.helper_of(user) - 1
        ]
        known = nodes & side
        for v in nodes:
            if v.file == d[user - 1] and v not in side:
                edges[v] |= known

    indeg = {v: 0 for v in nodes}
    for v, outs in edges.items():
        for w in outs:
            indeg[w] += 1
    queue = deque(v for v, deg in indeg.items() if deg == 0)
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for w in edges[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(nodes)


def certify(
    config: NetworkConfig, assoc: Association, demand: Sequence[int]
) -> ConverseCertificate:
    """Match the normalized certificate-set size against the achieved rate."""
    params = unknown_params(config)
    if config.total_mem == 0:
        raise InfeasibleSchemeError("the converse needs a positive total memory")
    h1, h2 = build_h(config, assoc, demand)
    alpha = Fraction(0)
    if params.f1 > 0:
        alpha += len(h1) * params.f1 / binom(config.num_helpers, params.t_s)
    if params.f2 > 0:
        alpha += len(h2) * params.f2 / binom(config.num_users, params.t_p)
    kappa = rate_unknown(config, assoc.profile)
    acyclic = verify_acyclic(config, assoc, demand, h1 | h2)
    return ConverseCertificate(
        h1=h1,
        h2=h2,
        alpha_lower=alpha,
        kappa_upper=kappa,
        acyclic=acyclic,
        tight=(alpha == kappa),
    )
