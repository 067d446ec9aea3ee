"""Small process that starts the benchmark's rounds and reports their cost.

Linux carries the resident-set high-water mark of a process across fork and
exec, so a child started straight from the benchmark (which holds networkx
and the set-up structures) would report the benchmark's memory as its own
peak.  This process imports nothing heavy, so a round started from it
reports its own peak.

Protocol, one JSON object per line: the request ``{"argv", "env", "stdout",
"stderr", "timeout"}`` on stdin, the reply ``{"wall_s", "maxrss_mb", "code"}``
on stdout.  End of input ends the process.
"""
import json
import os
import subprocess
import sys
import threading
import time


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"])
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"wall_s": wall, "maxrss_mb": usage.ru_maxrss / 1024.0,
                                     "code": proc.returncode}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
