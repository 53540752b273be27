"""Starts run.py's children, or times the host-speed reference, in a small process.

    python3 launcher.py        (started twice by run.py; one JSON request per stdin line)

Requests and replies, one JSON object per line:

    {"argv": [...], "env": {...}, "cwd": D, "out": F, "err": F}
        -> {"pid": P}, then {"rc": N, "seconds": S, "maxrss_kb": K} when P exits
    {"probe": S} -> {"refs": [...]}: reference() times totalling REF_SHARE * S, one at least

Why separate processes: on Linux a child's ru_maxrss includes the resident size
of the process it was forked from, so children forked from run.py (which holds
oracle state and outputs) would report run.py's memory.  One launcher only
forks, so it stays at a bare interpreter's size, below any kdvtau op, and its
children report their own memory.  The other only runs reference(), on a small
heap that stays the same all run, so its time follows the host and not
run.py's allocations.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from fractions import Fraction

REF_SHARE = 0.15  # reference time per second of op time


def reference() -> float:
    """Time a fixed mix of the kinds of work kdvtau does; about 0.2 s.

    Small rationals in a dict, a sparse polynomial product, rationals with
    numerators of thousands of bits, and tuple sorting and grouping.  No one
    part tracks the host's speed for every kdvtau op; the mix tracks it
    best of the mixes tried.  It uses the standard library only, so no
    change to kdvtau changes it.
    """
    t0 = time.perf_counter()
    acc: dict[tuple[int, int], int] = {}
    for r in range(60):
        x = Fraction(0)
        for k in range(1, 160):
            x += Fraction((-1) ** k * k, k * k + r + 1)
            acc[r, k % 17] = acc.get((r, k % 17), 0) + x.numerator % 1000003
    p = {(i, j): Fraction((-1) ** (i + j) * (i + 1), j + 2)
         for i in range(12) for j in range(12) if i * j % 3 != 1}
    prod: dict[tuple[int, int], Fraction] = {}
    for (a, b), x in p.items():
        for (c, d), y in p.items():
            prod[a + c, b + d] = prod.get((a + c, b + d), 0) + x * y
    big: dict[int, Fraction] = {}
    u, v = Fraction(1), Fraction(1, 3)
    for n in range(1, 1100):
        u, v = v, (u * (2 * n + 1) - v * n) / (n + 2)
        big[n] = u + v
    for rep in range(10):  # in small batches, so this process's resident size stays small
        rows = sorted((i * 7919 % 1009, str(i), (i, i * i)) for i in range(rep, 40000, 10))
        groups: dict[int, list] = {}
        for k, _, t in rows:
            groups.setdefault(k, []).append(t)
    return time.perf_counter() - t0


def reply(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def launch(req: dict) -> None:
    """Fork, exec req["argv"], and report its exit, wall time and max-RSS."""
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(req["cwd"])
            os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
            os.dup2(os.open(req["out"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 1)
            os.dup2(os.open(req["err"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 2)
            os.execve(req["argv"][0], req["argv"], req["env"])
        except BaseException as exc:  # the forked copy must never return into the request loop
            os.write(2, f"cannot start {req['argv'][0]}: {exc}\n".encode())
        os._exit(127)
    reply({"pid": pid})
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - t0
    reply({"rc": os.waitstatus_to_exitcode(status), "seconds": seconds, "maxrss_kb": usage.ru_maxrss})


def probe(seconds: float) -> None:
    refs: list[float] = []
    while not refs or sum(refs) < REF_SHARE * seconds:
        refs.append(reference())
    reply({"refs": refs})


def main() -> None:
    gc.disable()  # nothing here makes cycles; collections would only add noise to reference()
    for line in sys.stdin:
        req = json.loads(line)
        if "probe" in req:
            probe(req["probe"])
        else:
            launch(req)


if __name__ == "__main__":
    main()
