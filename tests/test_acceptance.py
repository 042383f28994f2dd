"""End-to-end acceptance checks: the worked reference configurations, the
certificate grid, bound ordering, curve regeneration, and the core
structural properties, each reported as one PASS/FAIL line."""

import csv
import json
import random
import time
from fractions import Fraction
from itertools import permutations

from click.testing import CliRunner

from dualcache.bounds import (
    cutset_bound,
    man_rate,
    pue_rate,
)
from dualcache.cli import main as cli_main
from dualcache.combin import binom, enumerate_ksubsets, rank_ksubset, unrank_ksubset
from dualcache.converse import certify
from dualcache.envelope import (
    _integer_lp,
    bound_report,
    envelope_at,
    lp_optimal,
    materialize_shared_placement,
    scheme2_corners,
    scheme2_envelope_rate,
    scheme_rate,
)
from dualcache.model import NetworkConfig, build_association
from dualcache.scheme1 import deliver_scheme1, layout_scheme1, rate_scheme1, scheme1_params
from dualcache.scheme2 import (
    deliver_scheme2,
    layout_scheme2,
    place_scheme2,
    rate_scheme2,
    scheme2_params,
)
from dualcache.scheme_unknown import (
    deliver_unknown,
    layout_unknown,
    place_unknown,
    rate_unknown,
    rate_unknown_general,
    unknown_params,
)
from dualcache.simulator import run_end_to_end
from layout_bytes import cache_load, summand_sizes
from subfile_delivery import labels

SKEWED_20 = [list(range(1, 11)), list(range(11, 16)), [16, 17, 18], [19, 20]]
UNIFORM_20 = [list(range(5 * i + 1, 5 * i + 6)) for i in range(4)]


def _report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok, name


def test_criterion_1_four_user_reference():
    start = time.perf_counter()
    config = NetworkConfig(4, 4, 2, Fraction(1), Fraction(1))
    assoc = build_association(config, [[1, 2, 3], [4]])
    demand = (1, 2, 3, 4)
    rate = rate_unknown(config, assoc.profile)
    out = deliver_unknown(assoc, unknown_params(config), demand)
    tier1 = sum(1 for t in out if t.part == 0)  # the helper split
    tier2 = sum(1 for t in out if t.part == 1)  # the user split
    sim = run_end_to_end(config, assoc, demand, seed=0)
    elapsed = time.perf_counter() - start
    ok = (
        rate == Fraction(13, 12)
        and len(out) == 7 and tier1 == 3 and tier2 == 4
        and sim.ok and sim.measured_rate == Fraction(13, 12)
        and elapsed < 1.0
    )
    _report("criterion-1 four-user reference run", ok)


def test_criterion_2_single_level_reference():
    config = NetworkConfig(6, 6, 3, Fraction(6, 5), Fraction(14, 5))
    assoc = build_association(config, [[1, 2, 3], [4, 5], [6]])
    params = scheme1_params(config, assoc)
    parts = layout_scheme1(assoc, params)
    out = deliver_scheme1(assoc, params, labels(parts, (1, 2, 3, 4, 5, 6)))
    sim = run_end_to_end(config, assoc, (1, 2, 3, 4, 5, 6), scheme="scheme1", seed=0)
    ok = (
        params == (4, 3)
        and rate_scheme1(config) == Fraction(2, 5)
        and len(out) == 6
        and all(summand_sizes(parts, t) == {Fraction(1, 15)} for t in out)
        and sim.ok and sim.measured_rate == Fraction(2, 5)
    )
    _report("criterion-2 single-level reference run", ok)


def test_criterion_3_two_level_reference():
    config = NetworkConfig(6, 6, 3, Fraction(2), Fraction(4, 3))
    assoc = build_association(config, [[1, 2, 3], [4, 5], [6]])
    run = scheme2_params(config, assoc)
    parts = layout_scheme2(assoc, run)
    out = deliver_scheme2(assoc, run, labels(parts, (1, 2, 3, 4, 5, 6)))
    sim = run_end_to_end(config, assoc, (1, 2, 3, 4, 5, 6), scheme="scheme2", seed=0)
    uniform = NetworkConfig(6, 6, 3, Fraction(2), Fraction(2))
    uni_assoc = build_association(uniform, [[1, 4], [2, 5], [3, 6]])
    t_s, t_p = scheme2_params(uniform, uni_assoc)
    gain = (t_s + 1) * (t_p + 1)
    uni_out = deliver_scheme2(uni_assoc, (t_s, t_p), (1, 2, 3, 4, 5, 6))
    ok = (
        rate_scheme2(config, assoc) == 1
        and len(out) == 9
        and all(summand_sizes(parts, t) == {Fraction(1, 9)} for t in out)
        and sim.ok and sim.measured_rate == 1
        and gain == 4
        and all(len(t.summands) == gain for t in uni_out)
    )
    _report("criterion-3 two-level reference run", ok)


def test_criterion_4_memory_sharing():
    config = NetworkConfig(4, 4, 2, Fraction(1), Fraction(1))
    assoc = build_association(config, [[1, 2, 3], [4]])
    corners = scheme2_corners(config, assoc)
    grid = {(c.helper_mem, c.private_mem) for c in corners}
    sol = envelope_at(corners, Fraction(1), Fraction(1))
    support = {(c.helper_mem, c.private_mem) for c, w in sol.weights if w > 0}
    # the LP envelope_at solves, with the weights at their corners' columns
    columns = [(c.helper_mem, c.private_mem, 1) for c in corners]
    weight = dict(zip(sol.support, (w for _, w in sol.weights)))
    x = [weight.get(j, 0) for j in range(len(corners))]
    run = materialize_shared_placement(sol, config, assoc)
    sim = run_end_to_end(config, assoc, (1, 2, 3, 4), scheme=run, seed=0)
    needed = {
        (Fraction(0), Fraction(1)),
        (Fraction(2), Fraction(2, 3)),
        (Fraction(2), Fraction(4, 3)),
    }
    ok = (
        sol.achieved_rate == Fraction(11, 12)
        and needed <= grid
        and needed <= support
        and sum(w for _, w in sol.weights) == 1
        and all(w >= 0 for _, w in sol.weights)
        and lp_optimal(_integer_lp(columns, [c.rate for c in corners], (1, 1, 1)),
                       sol.achieved_rate, x, sol.duals)
        and sim.ok and sim.measured_rate == Fraction(11, 12)
    )
    _report("criterion-4 memory-sharing mixture at (1,1)", ok)


def _grid_points():
    rng = random.Random(20)
    for lam in (2, 3):
        for k in range(max(3, lam), 7):
            partitions = []
            while len(partitions) < 3:
                groups = [[] for _ in range(lam)]
                for user in range(1, k + 1):
                    groups[rng.randrange(lam)].append(user)
                if groups not in partitions:
                    partitions.append(groups)
            for t_p in range(1, k + 1):
                mem = Fraction(t_p)  # N = K, so t_p levels sit at integer memory
                t_s = Fraction(lam) * mem / k
                if t_s.denominator != 1:
                    continue
                for alpha in (Fraction(0), Fraction(1, 2), Fraction(1)):
                    if alpha > 0 and t_s == 0:
                        continue
                    yield k, lam, partitions, alpha * mem, (1 - alpha) * mem


def test_criterion_5_certificate_grid():
    start = time.perf_counter()
    checked = 0
    ok = True
    rng = random.Random(5)
    for k, lam, partitions, ms, mp in _grid_points():
        if ms + mp == 0 or ms + mp > k:
            continue
        config = NetworkConfig(k, k, lam, ms, mp)
        for partition in partitions:
            assoc = build_association(config, partition)
            demand = tuple(rng.sample(range(1, k + 1), k))
            cert = certify(config, assoc, demand)
            checked += 1
            if not (cert.tight and cert.acyclic and cert.alpha_lower == cert.kappa_upper):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and checked > 50 and elapsed < 30.0
    _report(f"criterion-5 certificate grid ({checked} cases)", ok)


def test_criterion_6_bound_sandwich():
    ok = True

    def check_point(config, assoc):
        nonlocal ok
        m = config.total_mem
        man = man_rate(config.num_users, config.num_files, m)
        pue = pue_rate(config.num_helpers, config.num_files, m, assoc.profile)
        cut, _ = cutset_bound(config, assoc)
        unknown = rate_unknown_general(config, assoc.profile)
        s1 = scheme_rate("scheme1", config, assoc)[0]
        s2 = scheme2_envelope_rate(config, assoc)
        if not (man <= unknown <= pue and cut <= unknown):
            ok = False
        # the association-aware single-level scheme sits inside the full
        # reference sandwich; the two-level scheme is only guaranteed the
        # lower bounds (its memory lattice can be coarser than the shared
        # reference curve when the largest group is small)
        if s1 is not None and not (cut <= s1 and man <= s1 <= pue):
            ok = False
        if s2 is not None and not (cut <= s2 and man <= s2):
            ok = False

    for k, lam, partitions, ms, mp in _grid_points():
        if ms + mp > k:
            continue
        config = NetworkConfig(k, k, lam, ms, mp)
        check_point(config, build_association(config, partitions[0]))

    for partition in (SKEWED_20, UNIFORM_20):
        for ms in (5, 10, 15):
            for mp in range(0, 21 - ms, 3):
                config = NetworkConfig(20, 20, 4, Fraction(ms), Fraction(mp))
                check_point(config, build_association(config, partition))

    # high-memory strip: the two-level mixture must close the gap exactly
    for n, points in ((2, [(Fraction(3, 2), Fraction(1, 4)), (Fraction(1), Fraction(1))]),
                      (4, [(Fraction(13, 4), Fraction(1, 2)), (Fraction(3), Fraction(1))])):
        config0 = NetworkConfig(n, n, n, Fraction(0), Fraction(0))
        assoc = build_association(config0, [[u] for u in range(1, n + 1)])
        for ms, mp in points:
            config = NetworkConfig(n, n, n, ms, mp)
            report = bound_report(config, assoc)
            if not (report.optimality_flags["high_memory_optimal"]
                    and report.scheme_rates["scheme2"] == 1 - config.total_mem / n
                    == report.cutset):
                ok = False
    _report("criterion-6 bound sandwich grid", ok)


def _run_curve(tmp_path, partition, ms, name):
    payload = {
        "N": 20, "K": 20, "Lambda": 4, "Ms": ms, "Mp": 0,
        "association": partition,
    }
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / f"{name}.csv"
    result = CliRunner().invoke(cli_main, [
        "curve", "--config", str(cfg), "--ms", str(ms),
        "--mp-range", f"0:{20 - ms}:1", "--out", str(out), "--fractions",
    ])
    assert result.exit_code == 0, result.output
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[1:]


def test_criterion_7_curve_regeneration(tmp_path):
    expected_support = {
        ("skewed", 5): set(range(14, 16)), ("skewed", 10): set(range(9, 11)),
        ("skewed", 15): {5},
        ("uniform", 5): set(range(11, 16)), ("uniform", 10): set(range(8, 11)),
        ("uniform", 15): set(range(4, 6)),
    }
    ok = True
    for label, partition in (("skewed", SKEWED_20), ("uniform", UNIFORM_20)):
        for ms in (5, 10, 15):
            rows = _run_curve(tmp_path, partition, ms, f"{label}_{ms}")
            support = {
                int(Fraction(row[0])) for row in rows if row[2] != ""
            }
            if support != expected_support[(label, ms)]:
                ok = False
            for row in rows:
                if row[2] != "" and Fraction(row[2]) != Fraction(row[4]):
                    ok = False  # the single-level column must track the dedicated curve
            for col in range(1, 7):
                values = [Fraction(row[col]) for row in rows if row[col] != ""]
                if values != sorted(values, reverse=True):
                    ok = False
            for row in rows:
                cells = {i: Fraction(row[i]) for i in range(1, 7) if row[i] != ""}
                if not (cells[4] <= cells[1] <= cells[5]):
                    ok = False
                for scheme_col in (1, 2, 3):
                    if scheme_col in cells and cells[6] > cells[scheme_col]:
                        ok = False
                if 3 in cells and not cells[4] <= cells[3]:
                    ok = False
    _report("criterion-7 large-network curve regeneration", ok)


def test_criterion_8_property_suite():
    ok = True

    # subset rank/unrank round-trip, exhaustive through n = 8
    for n in range(0, 9):
        for kk in range(0, n + 1):
            for rank, s in enumerate(enumerate_ksubsets(n, kk)):
                if rank_ksubset(n, s) != rank or unrank_ksubset(n, kk, rank) != s:
                    ok = False

    # hockey-stick identity up to 12 helpers
    for lam in range(1, 13):
        for t in range(0, lam + 1):
            if sum(binom(lam - n, t) for n in range(1, lam - t + 1)) != binom(lam, t + 1):
                ok = False

    # placement fills the advertised memory exactly, and a user's private
    # cache never overlaps its helper's cache
    config = NetworkConfig(6, 6, 3, Fraction(2), Fraction(4, 3))
    assoc = build_association(config, [[1, 2, 3], [4, 5], [6]])
    cfg4 = NetworkConfig(4, 4, 2, Fraction(1), Fraction(1))
    run2, assoc4 = scheme2_params(config, assoc), build_association(cfg4, [[1, 2, 3], [4]])
    run4 = unknown_params(cfg4)
    for placement, parts in ((place_scheme2(assoc, run2), layout_scheme2(assoc, run2)),
                             (place_unknown(assoc4, run4), layout_unknown(assoc4, run4))):
        users = len(placement.private_contents)
        helpers = len(placement.helper_contents)
        cfg = config if users == 6 else cfg4
        asc = assoc if users == 6 else build_association(cfg, [[1, 2, 3], [4]])
        for helper in range(1, helpers + 1):
            if cache_load(cfg, parts, placement.helper_contents[helper - 1]) != cfg.helper_mem:
                ok = False
        for user in range(1, users + 1):
            if cache_load(cfg, parts, placement.private_contents[user - 1]) != cfg.private_mem:
                ok = False
            shared = placement.helper_contents[asc.helper_of(user) - 1]
            if placement.private_contents[user - 1] & shared:
                ok = False

    # every demand permutation of the four-user reference decodes at 13/12
    config4 = NetworkConfig(4, 4, 2, Fraction(1), Fraction(1))
    assoc4 = build_association(config4, [[1, 2, 3], [4]])
    for demand in permutations((1, 2, 3, 4)):
        report = run_end_to_end(config4, assoc4, demand, seed=1)
        if not report.ok or report.measured_rate != Fraction(13, 12):
            ok = False

    # measured rate equals the closed form across a small grid
    for lam, k, partition in [(2, 4, [[1, 2, 3], [4]]), (3, 6, [[1, 2], [3, 4], [5, 6]])]:
        for t in range(1, k + 1):
            mem = Fraction(t)
            if (Fraction(lam) * mem / k).denominator != 1:
                continue
            cfg = NetworkConfig(k, k, lam, mem / 2, mem / 2)
            asc = build_association(cfg, partition)
            report = run_end_to_end(cfg, asc, tuple(range(1, k + 1)), seed=t)
            if not report.ok or report.measured_rate != rate_unknown(cfg, asc.profile):
                ok = False
    _report("criterion-8 structural property suite", ok)
