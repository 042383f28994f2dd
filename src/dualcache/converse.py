"""Index-coding converse for the association-oblivious scheme.

For a fixed placement and demand, delivery is an index-coding instance; an acyclic
set of wanted subfiles lower-bounds the optimal code length, and the achieved rate,
an upper bound, certifies the delivery as optimal when the two agree.  The set keeps,
user by user, the pieces of its file no cache of it or of an earlier user holds (Wan,
Tuninetti and Piantanida, ITW 2016): no cache holds a piece kept for its user or a
later one, so every edge points back and any uncoded placement gives an acyclic set.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from itertools import chain
from typing import Iterable, Sequence

from .model import (Association, NetworkConfig, Placement, SubfileId, validate_association,
                    validate_demand)
from .scheme_unknown import place_unknown, rate_unknown


@dataclass(frozen=True)
class ConverseCertificate:
    h1: frozenset
    h2: frozenset
    alpha_lower: Fraction
    kappa_upper: Fraction
    acyclic: bool
    tight: bool


def build_h(
    config: NetworkConfig, assoc: Association, demand: Sequence[int], placement: Placement
) -> tuple[frozenset, ...]:
    """The acyclic set, one frozenset per layout part: walking assoc.ordered_users(),
    each user keeps, labelled with its file, the keys no cache of it or of an earlier
    user holds; its caches hold none kept for it or a later user, so H is acyclic."""
    d = validate_demand(config, demand)
    unknown = [set(keys) for keys, _ in placement.parts]
    h = [[] for _ in unknown]
    for user in assoc.ordered_users():
        wanted = d[user - 1]
        for keys, kept in zip(unknown, h):
            keys -= placement.private_contents[user - 1]
            keys -= placement.helper_contents[assoc.helper_of(user) - 1]
            kept += [SubfileId(wanted, a, b) for a, b in keys]
    return tuple(map(frozenset, h))


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
    pieces of every file, so the quotient is built from piece keys: one pass
    gathers each receiver's keys in the set, one set difference per receiver
    drops those its private and helper caches hold, and u -> u' exactly when
    one of u's two caches meets what u' still wants (K^2 `isdisjoint` tests).
    """
    d = validate_demand(config, demand)
    by_file: dict[int, set[tuple]] = defaultdict(set)  # file -> piece keys in the set
    for n, idx_a, idx_b in subfiles:
        by_file[n].add((idx_a, idx_b))
    caches = {user: (placement.private_contents[user - 1],
                     placement.helper_contents[assoc.helper_of(user) - 1])
              for user in range(1, config.num_users + 1)}
    wanted = {user: keys for user, n in enumerate(d, start=1)
              if (keys := by_file[n].difference(*caches[user]))}
    edges = {user: {other for other, keys in wanted.items()
                    if not (private.isdisjoint(keys) and helper.isdisjoint(keys))}
             for user, (private, helper) in caches.items()}

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
    placement = place_unknown(config)  # H is drawn from its keys, which passed the size gate
    h = build_h(config, assoc, demand, placement)
    alpha = sum((Fraction(len(kept) * share, len(keys))
                 for kept, (keys, share) in zip(h, placement.parts) if keys), Fraction(0))
    kappa = rate_unknown(config, assoc.profile)
    acyclic = verify_acyclic(config, assoc, demand, chain(*h), placement)
    return ConverseCertificate(
        h1=h[0],  # the fields name the oblivious layout's two parts
        h2=h[1],
        alpha_lower=alpha,
        kappa_upper=kappa,
        acyclic=acyclic,
        tight=(alpha == kappa),
    )
