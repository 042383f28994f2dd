"""Index-coding converse for the association-oblivious scheme.

For a fixed placement and demand, delivery is an index-coding instance.
An explicit acyclic set of wanted subfiles lower-bounds the optimal code
length, and the achieved rate upper-bounds it; their (always exact)
agreement certifies the delivery as optimal under this placement.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from itertools import combinations
from typing import Iterable, Sequence

from .model import (Association, InfeasibleSchemeError, NetworkConfig, Placement, SubfileId,
                    validate_association, validate_demand)
from .scheme_unknown import place_unknown, rate_unknown, unknown_params


@dataclass(frozen=True)
class ConverseCertificate:
    h1: frozenset
    h2: frozenset
    alpha_lower: Fraction
    kappa_upper: Fraction
    acyclic: bool
    tight: bool


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
    ordered = assoc.ordered_users()
    h1 = frozenset(
        SubfileId(d[user - 1], tau, ())
        for user in range(1, k + 1)
        for tau in combinations(range(assoc.helper_of(user) + 1, lam + 1), params.t_s)
    ) if params.f1 > 0 else frozenset()
    h2 = frozenset(
        SubfileId(d[user - 1], rho, None)
        for p, user in enumerate(ordered)
        for rho in combinations(sorted(ordered[p + 1:]), params.t_p)
    ) if params.f2 > 0 else frozenset()
    return h1, h2


def verify_acyclic(
    config: NetworkConfig,
    assoc: Association,
    demand: Sequence[int],
    subfiles: Iterable[SubfileId],
    placement: Placement,
) -> bool:
    """Whether the side-information digraph the placement induces on the set is acyclic.

    A wanted subfile points to every set member its receiver caches.
    Demands are distinct, so each subfile has at most one receiver, and all
    subfiles a user wants and lacks share their out-neighbours: the digraph
    is acyclic exactly when its quotient on users is, where u -> u' when u
    caches a set member that u' wants and lacks.  A cache holds the same
    pieces of every file, so wanted subfiles are grouped by piece key.
    """
    d = validate_demand(config, demand)
    receiver = {n: user for user, n in enumerate(d, start=1)}

    def caches(user: int) -> tuple[frozenset, frozenset]:
        return (placement.private_contents[user - 1],
                placement.helper_contents[assoc.helper_of(user) - 1])

    wanted: dict[tuple, set[int]] = defaultdict(set)  # piece key -> receivers lacking it
    for v in subfiles:
        user = receiver.get(v.file)
        if user is not None and not any(v.piece in cache for cache in caches(user)):
            wanted[v.piece].add(user)
    edges: dict[int, set[int]] = {user: set() for users in wanted.values() for user in users}
    for user, outs in edges.items():
        for cache in caches(user):
            for key in cache & wanted.keys():
                outs.update(wanted[key])

    try:
        TopologicalSorter(edges).prepare()  # raises on any cycle
    except CycleError:
        return False
    return True


def certify(
    config: NetworkConfig, assoc: Association, demand: Sequence[int]
) -> ConverseCertificate:
    """Match the size of H, in pieces of share / len(keys) each, against the achieved rate."""
    validate_association(config, assoc)
    if config.total_mem == 0:
        raise InfeasibleSchemeError("the converse needs a positive total memory")
    placement = place_unknown(config)  # its keys pass the size gate before build_h lists H
    h1, h2 = build_h(config, assoc, demand)
    alpha = sum((len(h) * share / len(keys)
                 for h, (keys, share) in zip((h1, h2), placement.parts) if keys), Fraction(0))
    kappa = rate_unknown(config, assoc.profile)
    acyclic = verify_acyclic(config, assoc, demand, h1 | h2, placement)
    return ConverseCertificate(
        h1=h1,
        h2=h2,
        alpha_lower=alpha,
        kappa_upper=kappa,
        acyclic=acyclic,
        tight=(alpha == kappa),
    )
