#!/usr/bin/env python3
"""Turn a sampler.c dump into flat and inclusive function shares.

    python3 scripts/prof/report.py /tmp/prof.<pid> [--top 30] [--strip N]

Addresses are mapped back through the dump's own /proc/self/maps copy and
resolved with `addr2line -f -C -i` (so inlined frames count for the function
the source says they are in). *Flat* is where the program counter was;
*inclusive* counts a function once per sample in which it appears anywhere on
the stack. Needs binutils' addr2line and a binary built with
RUSTFLAGS="-C force-frame-pointers=yes -g".
"""
import argparse
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
                fn = lines[i]
                names[cur].append(fn if fn != "??" else f"[{os.path.basename(obj)}]")
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

    flat, incl = collections.Counter(), collections.Counter()
    for frames in located:
        fns = []
        for key in frames:
            fns.extend(names.get(key, ["[unknown]"]))
        flat[fns[0]] += 1
        for fn in set(fns):
            incl[fn] += 1

    total = len(located)
    if cpu_ms:
        print(f"{total} samples over {cpu_ms / 1000:.2f} s of CPU (one per {cpu_ms / total:.1f} ms)")
    else:
        print(f"{total} samples")
    for title, counts in (("flat", flat), ("inclusive", incl)):
        print(f"\n{title}:")
        for fn, n in counts.most_common(args.top):
            print(f"  {100 * n / total:6.2f} %  {n:7d}  {short(fn, args.strip)}")


if __name__ == "__main__":
    main()
