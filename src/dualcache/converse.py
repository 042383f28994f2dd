"""Index-coding converse for the association-oblivious scheme.

For a fixed placement and demand, delivery is an index-coding instance; an acyclic
set of wanted subfiles lower-bounds the optimal code length, and the achieved rate,
an upper bound, certifies the delivery as optimal when the two agree.  The set keeps,
user by user, the pieces of its file no cache of it or of an earlier user holds (Wan,
Tuninetti and Piantanida, ITW 2016): no cache holds a piece kept for its user or a
later one, so every edge points back and any uncoded placement gives an acyclic set.

Caches are ints over the layout's keys, read from its splits (model.Split) with no key
listed, so the walk is one `rest &= ~cache` per user, alpha is a bit count per part, and
acyclicity is certified along the walk's order in 2K int ops; keys are listed only when a
caller iterates H.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from typing import Optional, Sequence

from .model import (Association, BitSet, NetworkConfig, Placement, validate_association,
                    validate_demand)
from .scheme_unknown import place_unknown, rate_unknown_general, unknown_params


@dataclass(frozen=True)
class ConverseCertificate:
    h1: BitSet
    h2: BitSet
    alpha_lower: Fraction
    kappa_upper: Fraction
    acyclic: bool
    tight: bool


def walk(assoc: Association, known: Sequence[int], placement: Placement) -> list[int]:
    """Per user in 1..K, the keys it keeps as bits: walking assoc.ordered_users(), those
    no cache (known, per user) of it or of an earlier user holds."""
    kept, rest = [0] * assoc.num_users, (1 << sum(len(keys) for keys, _ in placement.parts)) - 1
    for user in assoc.ordered_users():
        rest = kept[user - 1] = rest & ~known[user - 1]
    return kept


def build_h(
    config: NetworkConfig, assoc: Association, demand: Sequence[int], placement: Placement,
    kept: Optional[Sequence[int]] = None,
) -> tuple[BitSet, ...]:
    """The acyclic set, one view per layout part: per user in 1..K, labelled with its
    file, the walk's kept bits (walked here unless given).  Its caches hold none kept
    for it or a later user, so H is acyclic."""
    d = validate_demand(config, demand)
    kept = walk(assoc, placement.known(assoc), placement) if kept is None else kept
    h, low = [], 1
    for keys, _ in placement.parts:
        high = low << len(keys)
        h.append(BitSet(placement.parts, [(n, bits & (high - low)) for n, bits in zip(d, kept)]))
        low = high
    return tuple(h)


def verify_acyclic(kept: Sequence[int], known: Sequence[int]) -> bool:
    """Whether the side-information digraph a placement induces on a set of wanted
    pieces is acyclic, where kept[u - 1] holds the set's pieces of user u's file and
    known[u - 1] user u's two caches, as bits over the layout's keys.  A wanted piece
    points to every set member its receiver caches.  Demands are distinct, so all
    pieces a user wants and lacks share their out-neighbours, and the digraph is
    acyclic exactly when its quotient on users is: u -> u' when u's caches meet what
    u' still wants (K^2 `&` tests).  Users are 0..K-1 here; bits that miss their
    user's caches, as a walk's do, are not copied."""
    wanted = {u: lacked for u, (bits, cache) in enumerate(zip(kept, known))
              if (lacked := bits & ~cache if bits & cache else bits)}
    edges = {u: {w for w, bits in wanted.items() if cache & bits} for u, cache in enumerate(known)}
    try:
        TopologicalSorter(edges).prepare()  # raises on any cycle
    except CycleError:
        return False
    return True


def acyclic_in_order(order: Sequence[int], kept: Sequence[int], known: Sequence[int]) -> bool:
    """Whether every side-information edge on the set points back along order, a list of
    users 1..K, each once (kept and known as verify_acyclic takes them): the caches of
    the users up to each one, folded into one union in that order, must miss what that
    user keeps.  Then order is a topological order of the user quotient, so the set is
    acyclic; False says only that this order is not one, as no other is searched."""
    union = 0
    for user in order:
        union |= known[user - 1]
        if union & kept[user - 1]:
            return False
    return True


def certify(
    config: NetworkConfig, assoc: Association, demand: Sequence[int]
) -> ConverseCertificate:
    """Match the size of H, in pieces of share / len(keys) each, against the achieved rate."""
    validate_association(config, assoc)
    placement = place_unknown(assoc, unknown_params(config))  # size-gated; no key is listed
    known = placement.known(assoc)
    kept = walk(assoc, known, placement)
    acyclic = acyclic_in_order(assoc.ordered_users(), kept, known)  # the walk's own order
    del known  # before H's views are cut from kept, so the two never peak together
    h = build_h(config, assoc, demand, placement, kept)
    alpha = sum((Fraction(len(part) * share, len(keys))
                 for part, (keys, share) in zip(h, placement.parts) if keys), Fraction(0))
    kappa = rate_unknown_general(config, assoc.profile)  # the gate passed, so this is the run's
    return ConverseCertificate(
        h1=h[0],  # the fields name the oblivious layout's two parts
        h2=h[1],
        alpha_lower=alpha,
        kappa_upper=kappa,
        acyclic=acyclic,
        tight=(alpha == kappa),
    )
