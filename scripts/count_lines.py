#!/usr/bin/env python3
r"""Count the non-test lines of the workspace's Rust sources.

Counts every line of every `.rs` file under `crates/*/src` (recursively),
stopping at the file's first line that contains `#[cfg(test)]`. Prints
one count per crate and the total, then the public-surface size: every
line of those files, test modules included, that declares a `pub` item
(`fn`, `struct`, `enum`, `trait`, `const`, `static`, `type`, `mod` or
`use`), the count `grep -rE '^\s*pub (fn|...|use)' crates/*/src` gives.

Usage: python3 scripts/count_lines.py [REPO_ROOT]
"""

import pathlib
import re
import sys

PUB_ITEM = re.compile(r"^\s*pub (fn|struct|enum|trait|const|static|type|mod|use)")


def non_test_lines(path):
    n = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if "#[cfg(test)]" in line:
                break
            n += 1
    return n


def pub_items(path):
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if PUB_ITEM.match(line))


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    total = pub = 0
    for src in sorted(root.glob("crates/*/src")):
        crate = src.parent.name
        files = sorted(src.rglob("*.rs"))
        count = sum(non_test_lines(p) for p in files)
        total += count
        pub += sum(pub_items(p) for p in files)
        print(f"{crate:<12} {count:>7}")
    print(f"{'total':<12} {total:>7}")
    print(f"{'pub items':<12} {pub:>7}")


if __name__ == "__main__":
    main()
