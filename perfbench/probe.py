"""Speed probe: samples how fast the machine runs while the benchmark runs.

    python3 perfbench/probe.py OUT

Every ``GAP_S`` it times ``LOOP``, a short fixed loop that does not use the
program, and appends one line ``<CLOCK_MONOTONIC s> <loop s>`` to OUT.  It
takes about 2% of one CPU, so a round runs beside it on the other.  It ends
when its standard input closes.
"""
import select
import sys
import time

GAP_S = 0.045
LOOP = 4000


def sample() -> float:
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(LOOP):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0)
    return time.perf_counter() - t0


def main(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        while True:
            dt = sample()
            fh.write(f"{time.monotonic():.6f} {dt:.9f}\n")
            fh.flush()
            if select.select([sys.stdin], [], [], GAP_S)[0]:
                if not sys.stdin.buffer.read1(4096):
                    return


if __name__ == "__main__":
    main(sys.argv[1])
