"""Run one command in two checkouts as alternating fresh processes and compare them.

    python3 tools/pairs.py --pairs 15 OLD_TREE NEW_TREE -- python3 -m dadecheck.cli verify weyl --n 1

Each process runs in its checkout, with its ``src`` on PYTHONPATH and
DADE_DATA_DIR unset; which side runs first alternates from pair to pair.
The metric is the process's wall time, or with ``--printed`` the last number
it prints.  CPU seconds (user + sys) and peak RSS are each process's own, from
the ``os.wait4`` rusage: this parent keeps only numbers, so the high-water
mark a child inherits from it at fork stays below the child's own.  NEW wins a pair when its metric is
lower; a gain is shown when it wins at least nine tenths of the pairs and the
medians differ by more than the distance between OLD's quartiles.  CPU is
judged by the same rule; the pairs NEW won on peak RSS are counted, to show it
did not worsen.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time


def run_once(tree, cmd, printed):
    """(metric, CPU seconds, peak RSS in MB) of one fresh process of cmd in the checkout tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.pop("DADE_DATA_DIR", None)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above: Popen must not wait
    if proc.returncode not in (0, 1):
        sys.exit(f"{tree}: {' '.join(cmd)} exited {proc.returncode}")
    return ((float(out.split()[-1]) if printed else wall), usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q2, q1, q3


def judge(label, old, new):
    """One line: the pairs NEW won on these values, and whether they show a gain."""
    won = sum(n < o for o, n in zip(old, new))
    (old_med, q1, q3), new_med = summary(old), summary(new)[0]
    gap = old_med - new_med
    shown = won >= 0.9 * len(old) and gap > q3 - q1
    return (f"{label}: new won {won}/{len(old)} pairs; median gap {gap:.4f} against old "
            f"quartile spread {q3 - q1:.4f}: {'gain shown' if shown else 'no gain shown'}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pairs", type=int, default=15)
    p.add_argument("--printed", action="store_true", help="the metric is the last number printed")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("cmd", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    trees = (args.old, args.new)
    runs = ([], [])  # (metric, CPU seconds, peak RSS) of each process, old and new
    for i in range(args.pairs):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            runs[side].append(run_once(trees[side], cmd, args.printed))
        (o, ocpu, orss), (n, ncpu, nrss) = runs[0][-1], runs[1][-1]
        print(f"pair {i + 1:2d}: old {o:.4f} new {n:.4f}   CPU old {ocpu:.3f} new {ncpu:.3f} s"
              f"   peak RSS old {orss:.1f} new {nrss:.1f} MB")
    for label, side in zip(("old", "new"), runs):
        (med, q1, q3), (cpu, c1, c3) = (summary([r[k] for r in side]) for k in (0, 1))
        rss = statistics.median(r for _, _, r in side)
        print(f"{label}: median {med:.4f} (quartiles {q1:.4f}-{q3:.4f}), CPU median {cpu:.3f} s "
              f"(quartiles {c1:.3f}-{c3:.3f}), peak RSS median {rss:.1f} MB")
    for k, label in enumerate(("metric", "CPU")):
        print(judge(label, [r[k] for r in runs[0]], [r[k] for r in runs[1]]))
    rss_won = sum(n[2] < o[2] for o, n in zip(*runs))
    print(f"new lower in {rss_won}/{args.pairs} pairs on peak RSS")


if __name__ == "__main__":
    main()
