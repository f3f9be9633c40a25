#!/usr/bin/env python3
"""sym.py -- turn sigprof.so's samples into self and inclusive shares.

    python3 tools/prof/sym.py /tmp/prof.<pid> [--top N] [--by self|incl] [--match SUBSTRING ...]

Reads <prefix>.samples and <prefix>.maps, resolves every address against the
symbol table of the file it was mapped from (`nm -C`, plus the dynamic symbols
of shared libraries), and prints, per function, the share of samples in which
it was the innermost frame (self) and in which it was anywhere on the stack
(inclusive), the top N by self share or, with `--by incl`, by inclusive share
(the call tree's trunk first). Each `--match` adds one line for all functions whose name contains
the substring, taken together: `--match BPlusTree::get --match malloc`.
"""
import bisect
import collections
import re
import subprocess
import sys


def load_maps(path):
    """[(start, end, load_base, file)] for every executable mapping."""
    base, out = {}, []
    for line in open(path):
        f = line.split()
        if len(f) < 6 or not f[5].startswith("/"):
            continue
        start, end = (int(x, 16) for x in f[0].split("-"))
        # Every segment of one ELF object keeps (address - file offset) fixed.
        base.setdefault(f[5], start - int(f[2], 16))
        if "x" in f[1]:
            out.append((start, end, base[f[5]], f[5]))
    return out


def load_symbols(file):
    """Sorted ([address], [name]) of the functions `file` defines."""
    syms = set()
    for flags in (["-C", "--defined-only"], ["-C", "-D", "--defined-only"]):
        text = subprocess.run(["nm", *flags, file], capture_output=True, text=True).stdout
        for line in text.splitlines():
            f = line.split(None, 2)
            if len(f) == 3 and f[1] in "tTwWi":
                syms.add((int(f[0], 16), re.sub(r"::h[0-9a-f]{16}$", "", f[2])))
    syms = sorted(syms)
    return [a for a, _ in syms], [n for _, n in syms]


def main():
    args = sys.argv[1:]
    if not args:
        sys.exit(__doc__)
    prefix, top, by, matches = args[0], 25, "self", []
    for flag, value in zip(args[1::2], args[2::2]):
        if flag == "--top":
            top = int(value)
        elif flag == "--by" and value in ("self", "incl"):
            by = value
        elif flag == "--match":
            matches.append(value)
        else:
            sys.exit(f"unknown flag {flag}\n{__doc__}")
    maps = load_maps(prefix + ".maps")
    tables, cache = {}, {}

    def resolve(addr):
        if addr not in cache:
            cache[addr] = "[unmapped]"
            for start, end, base, file in maps:
                if start <= addr < end:
                    if file not in tables:
                        tables[file] = load_symbols(file)
                    addrs, names = tables[file]
                    i = bisect.bisect_right(addrs, addr - base) - 1
                    cache[addr] = names[i] if i >= 0 else f"[{file}]"
                    break
        return cache[addr]

    self_n, incl_n = collections.Counter(), collections.Counter()
    match_self, match_incl = collections.Counter(), collections.Counter()
    total = 0
    for line in open(prefix + ".samples"):
        stack = [int(x, 16) for x in line.split()]
        if not stack:
            continue
        total += 1
        # Frame 0 is the interrupted instruction; the rest are return
        # addresses, which point one past the call.
        names = [resolve(a if i == 0 else a - 1) for i, a in enumerate(stack)]
        self_n[names[0]] += 1
        incl_n.update(set(names))
        for m in matches:
            match_self[m] += m in names[0]
            match_incl[m] += any(m in n for n in names)

    print(f"{total} samples, one per ms of CPU")
    print(f"{'self%':>7} {'incl%':>7}  function")
    for name, _ in (self_n if by == "self" else incl_n).most_common(top):
        print(f"{100 * self_n[name] / total:7.2f} {100 * incl_n[name] / total:7.2f}  {name}")
    for m in matches:
        print(f"{100 * match_self[m] / total:7.2f} {100 * match_incl[m] / total:7.2f}  * every name containing {m!r}")


if __name__ == "__main__":
    main()
