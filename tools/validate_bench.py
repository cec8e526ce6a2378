#!/usr/bin/env python3
"""Validate committed benchmark JSONs (BENCH_*.json).

Usage: python3 tools/validate_bench.py [BENCH_x.json ...]

Without arguments it checks every BENCH_*.json at the repository root.
Exits 1 and prints one line per problem if any check fails. CI runs this
script, and ctest registers it as `validate_bench`, so a local `ctest`
catches what CI catches.

Checks (all deterministic — none compares two timings):
  - every file parses and has a non-empty "results" list;
  - every row carries an identity flag (identical_results or
    identical_decisions) and all of them are true;
  - stage accounting rows pass their coverage gate (stage_coverage_ok) and
    no stage_coverage_* column sits below 0.90;
  - a cache-build worker sweep, where present, kept byte-identical balls;
  - decision-path rows carry the cache memory columns and pass the
    implicit-tier footprint gate (cache_bytes_ok).

Wall-clock observability overhead (obs_*_ms_per_decision, obs_overhead_pct)
is reported by bench_decision_path but not gated here: the disabled path's
zero-work contract is pinned by tests/obs_test.cc instead.
"""
import glob
import json
import os
import sys

MEMORY_COLUMNS = ('eball_tier', 'cache_resident_bytes', 'cache_explicit_bytes',
                  'cache_bytes_ratio', 'cache_bytes_ok', 'cache_build_workers',
                  'peak_rss_mb')
COVERAGE_FLOOR = 0.90


def check_row(path, bench, row):
    bad = []
    flags = [row[k] for k in ('identical_results', 'identical_decisions')
             if k in row]
    if not flags:
        bad.append(f'{path}: row without identity flag: {row}')
    elif not all(flags):
        bad.append(f'{path}: non-identical row: {row}')
    if 'stage_coverage_ok' in row:
        if not row['stage_coverage_ok']:
            bad.append(f'{path}: stage coverage gate failed: {row}')
        for k, v in row.items():
            if (k.startswith('stage_coverage_') and k != 'stage_coverage_ok'
                    and v < COVERAGE_FLOOR):
                bad.append(f'{path}: {k}={v} far below gate: {row}')
    sweep = row.get('cache_build_workers_ms')
    if sweep is not None and not sweep.get('identical_balls'):
        bad.append(f'{path}: worker sweep lost byte-identity: {row}')
    if bench == 'decision_path':
        for k in MEMORY_COLUMNS:
            if k not in row:
                bad.append(f'{path}: row missing memory column {k}: {row}')
        if not row.get('cache_bytes_ok', False):
            bad.append(f'{path}: implicit-tier footprint gate failed: {row}')
    return bad


def check_file(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f'{path}: unreadable: {e}']
    rows = doc.get('results', [])
    if not rows:
        return [f'{path}: no results']
    bad = []
    for row in rows:
        bad += check_row(path, doc.get('bench'), row)
    return bad


def main(argv):
    paths = argv[1:]
    if not paths:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = sorted(glob.glob(os.path.join(root, 'BENCH_*.json')))
        if not paths:
            print(f'no BENCH_*.json under {root}')
            return 1
    bad = []
    for path in paths:
        bad += check_file(path)
    for line in bad:
        print(line)
    if not bad:
        print(f'{len(paths)} benchmark file(s) valid')
    return 1 if bad else 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
