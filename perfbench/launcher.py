"""Starts the benchmark's child processes from a small process.

A child's max-RSS includes the memory of the process it was forked from,
and the benchmark's own memory grows while it checks outputs.  So
``run.py`` starts this launcher first, while it is still small, and has it
start, time and reap every command.

Protocol: one JSON request per line on stdin, with keys ``argv``, ``cwd``,
``env``, ``stdout``, ``stderr`` (file paths) and ``timeout`` (seconds);
one JSON reply per line on stdout, with ``returncode``, ``wall`` (seconds)
and ``maxrss_kb``.  The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req):
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=req["cwd"], env=req["env"])
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "wall": wall, "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
