#!/usr/bin/env python3
"""Turn a sampler.c dump into flat and inclusive function shares.

    python3 scripts/prof/report.py /tmp/prof.<pid> [--top 30] [--strip N]
                                   [--leaf-callers NAME]

Addresses are mapped back through the dump's own /proc/self/maps copy and
resolved with `addr2line -f -C -i` (so inlined frames count for the function
the source says they are in). *Flat* is where the program counter was;
*inclusive* counts a function once per sample in which it appears anywhere on
the stack. Needs binutils' addr2line and a binary built with
RUSTFLAGS="-C force-frame-pointers=yes -g".

An object without debug info (libc, libm) resolves to the nearest *exported*
symbol below the address, which for a static function is some unrelated
neighbour: glibc's `_int_malloc` reads as `__default_morecore`. Such an
address is checked against the symbol's size and, when it lies past the end,
shown as `[libc.so.6 past __default_morecore]`. `--leaf-callers NAME` says
who is responsible instead: for the samples whose innermost function
contains NAME, the first frame above it that is in the profiled binary.
"""
import argparse
import bisect
import collections
import os
import re
import subprocess
import sys


def load(path):
    samples, maps, cpu_ms = [], [], None
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                m = re.search(r"cpu_ms (\d+)", line)
                cpu_ms = int(m.group(1)) if m else None
            elif line.startswith("S "):
                samples.append([int(x, 16) for x in line.split()[1:]])
            elif line.startswith("M "):
                m = re.match(
                    r"M ([0-9a-f]+)-([0-9a-f]+) (\S+) ([0-9a-f]+) \S+ \S+\s*(.*)", line
                )
                if m and "x" in m.group(3) and m.group(5).startswith("/"):
                    lo, hi, off = (int(m.group(i), 16) for i in (1, 2, 4))
                    maps.append((lo, hi, off, m.group(5)))
    return samples, maps, cpu_ms


def locate(addr, maps):
    for lo, hi, off, obj in maps:
        if lo <= addr < hi:
            return obj, addr - lo + off
    return None, addr


def elf_vaddr_bias(obj):
    """File offset -> virtual address for the executable segment (PIE and
    shared objects are linked at 0 but their text need not sit at offset ==
    vaddr)."""
    try:
        out = subprocess.run(
            ["readelf", "-lW", obj], capture_output=True, text=True, check=True
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return 0
    for line in out.splitlines():
        f = line.split()
        if len(f) >= 7 and f[0] == "LOAD" and "E" in "".join(f[6:8]):
            return int(f[2], 16) - int(f[1], 16)
    return 0


def symbol_extents(obj):
    """Sorted [(vaddr, size, name)] of the defined symbols that have a size,
    from the static and the dynamic symbol table."""
    syms = set()
    for flags in (["-S", "--defined-only"], ["-D", "-S", "--defined-only"]):
        proc = subprocess.run(["nm", "-C", *flags, obj], capture_output=True, text=True)
        for line in proc.stdout.splitlines():
            f = line.split(None, 3)
            if len(f) == 4 and f[2] in "TtWwiV":
                syms.add((int(f[0], 16), int(f[1], 16), f[3].split("@")[0]))
    return sorted(syms)


def beyond_symbol(extents, vaddr, obj):
    """None when `vaddr` lies inside the nearest symbol at or below it, else
    the label that says it does not."""
    i = bisect.bisect_right(extents, (vaddr, float("inf"), "")) - 1
    base = os.path.basename(obj)
    if i < 0:
        return f"[{base}]"
    start, size, name = extents[i]
    return None if vaddr < start + size else f"[{base} past {name}]"


def symbolize(by_obj):
    """{obj: {file_offset}} -> {(obj, file_offset): [innermost..outermost]}"""
    names = {}
    for obj, offsets in by_obj.items():
        offsets = sorted(offsets)
        if not os.path.exists(obj):
            for o in offsets:
                names[(obj, o)] = [f"[{os.path.basename(obj)}]"]
            continue
        bias = elf_vaddr_bias(obj)
        extents = None
        proc = subprocess.run(
            ["addr2line", "-f", "-C", "-i", "-a", "-e", obj],
            input="\n".join(hex(o + bias) for o in offsets),
            capture_output=True,
            text=True,
        )
        cur, lines = None, proc.stdout.splitlines()
        i = 0
        while i < len(lines):
            if lines[i].startswith("0x"):
                cur = (obj, int(lines[i], 16) - bias)
                names[cur] = []
                i += 1
            else:
                fn, where = lines[i], lines[i + 1] if i + 1 < len(lines) else "??"
                if fn == "??":
                    fn = f"[{os.path.basename(obj)}]"
                elif where.startswith("??"):
                    # No line info: the name came from the symbol table.
                    if extents is None:
                        extents = symbol_extents(obj)
                    fn = beyond_symbol(extents, cur[1] + bias, obj) or fn
                names[cur].append(fn)
                i += 2  # function line, then file:line
    return names


def short(name, strip):
    name = re.sub(r"<(.+?) as .+?>", r"\1", name)
    parts = name.split("::")
    return "::".join(parts[strip:]) if len(parts) > strip else name


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dump")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--strip", type=int, default=0, help="leading path segments to drop")
    ap.add_argument(
        "--leaf-callers",
        metavar="NAME",
        help="for samples whose innermost function contains NAME: the first "
        "frame above it inside the profiled binary",
    )
    args = ap.parse_args()

    samples, maps, cpu_ms = load(args.dump)
    if not samples:
        sys.exit(f"{args.dump}: no samples")

    by_obj = collections.defaultdict(set)
    located = []
    for stack in samples:
        frames = []
        for depth, addr in enumerate(stack):
            # A return address points after the call; step back into it.
            obj, off = locate(addr - (1 if depth else 0), maps)
            frames.append((obj or "[unmapped]", off))
            by_obj[obj or "[unmapped]"].add(off)
        located.append(frames)
    names = symbolize(by_obj)

    # The profiled binary is the first executable mapping of the dump.
    binary = maps[0][3] if maps else None
    flat, incl, callers = collections.Counter(), collections.Counter(), collections.Counter()
    for frames in located:
        fns = []
        for key in frames:
            fns.extend((fn, key[0]) for fn in names.get(key, ["[unknown]"]))
        leaf = fns[0][0]
        flat[leaf] += 1
        for fn in {fn for fn, _ in fns}:
            incl[fn] += 1
        if args.leaf_callers and args.leaf_callers in leaf:
            above = (fn for fn, obj in fns[1:] if obj == binary)
            callers[next(above, "[no frame in the binary]")] += 1

    total = len(located)
    if cpu_ms:
        print(f"{total} samples over {cpu_ms / 1000:.2f} s of CPU (one per {cpu_ms / total:.1f} ms)")
    else:
        print(f"{total} samples")
    tables = [("flat", flat), ("inclusive", incl)]
    if args.leaf_callers:
        found = sum(callers.values())
        tables = [(f"callers of leaf `{args.leaf_callers}` ({found} samples)", callers)]
    for title, counts in tables:
        print(f"\n{title}:")
        for fn, n in counts.most_common(args.top):
            print(f"  {100 * n / total:6.2f} %  {n:7d}  {short(fn, args.strip)}")


if __name__ == "__main__":
    main()
