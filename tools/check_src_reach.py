#!/usr/bin/env python3
"""Check that every header under src/ is reached from outside tests/.

Usage: python3 tools/check_src_reach.py [repo_root]

A header src/<dir>/<name>.h counts as reached when some file under src/,
tools/, examples/, bench/ or perfbench/ other than its own .cc includes it
(as "<dir>/<name>.h", the include style of this repository). A header that
only tests include is test-oracle code and belongs in tests/reference/.

Exits 1 and prints one line per unreached header; ctest registers this
script as `src_reach`.
"""
import os
import re
import sys

INCLUDERS = ('src', 'tools', 'examples', 'bench', 'perfbench')
SOURCE_EXT = ('.h', '.hpp', '.cc', '.cpp')
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def source_files(root):
    for top in INCLUDERS:
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            for name in names:
                if name.endswith(SOURCE_EXT):
                    yield os.path.join(dirpath, name)


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), '..'))
    src = os.path.join(root, 'src')
    headers = {}  # include path ("graph/graph.h") -> its own .cc
    for dirpath, _, names in os.walk(src):
        for name in names:
            if name.endswith('.h'):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, src).replace(os.sep, '/')
                headers[rel] = os.path.splitext(path)[0] + '.cc'

    reached = set()
    for path in source_files(root):
        with open(path, encoding='utf-8', errors='replace') as f:
            text = f.read()
        for inc in INCLUDE.findall(text):
            if inc in headers and headers[inc] != path:
                reached.add(inc)

    missing = sorted(set(headers) - reached)
    for inc in missing:
        print(f'src/{inc}: no include from src/, tools/, examples/, bench/ '
              f'or perfbench/ (only tests use it: move it to tests/reference/)')
    if missing:
        return 1
    print(f'src_reach: all {len(headers)} headers under src/ are reached')
    return 0


if __name__ == '__main__':
    sys.exit(main())
