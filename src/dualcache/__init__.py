"""Coded caching engine for networks with shared helper caches and private
user caches: placements, XOR delivery, rate formulas, memory-sharing
envelopes, lower bounds, an index-coding converse, and a bit-exact
simulator."""

from .combin import binom, enumerate_ksubsets, rank_ksubset, unrank_ksubset
from .model import (
    Association,
    CertificateError,
    ConfigError,
    InfeasibleSchemeError,
    NetworkConfig,
    Placement,
    SubfileId,
    Transmission,
    build_association,
    load_config,
    parse_fraction,
    validate_demand,
)

__all__ = [
    "Association",
    "CertificateError",
    "ConfigError",
    "InfeasibleSchemeError",
    "NetworkConfig",
    "Placement",
    "SubfileId",
    "Transmission",
    "binom",
    "build_association",
    "enumerate_ksubsets",
    "load_config",
    "parse_fraction",
    "rank_ksubset",
    "unrank_ksubset",
    "validate_demand",
]
