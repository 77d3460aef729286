#!/usr/bin/env python3
"""Count the non-test lines of the workspace's Rust sources.

Counts every line of every `.rs` file under `crates/*/src` (recursively),
stopping at the file's first line that contains `#[cfg(test)]`. The
offline dependency stand-ins live one level deeper, in
`crates/compat/<name>/src`, so the glob does not count them. Prints one
count per crate and the total.

Usage: python3 scripts/count_lines.py [REPO_ROOT]
"""

import pathlib
import sys


def non_test_lines(path):
    n = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if "#[cfg(test)]" in line:
                break
            n += 1
    return n


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    total = 0
    for src in sorted(root.glob("crates/*/src")):
        crate = src.parent.name
        count = sum(non_test_lines(p) for p in sorted(src.rglob("*.rs")))
        total += count
        print(f"{crate:<12} {count:>7}")
    print(f"{'total':<12} {total:>7}")


if __name__ == "__main__":
    main()
