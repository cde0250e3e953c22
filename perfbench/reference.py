"""A fixed Python job whose time tracks the host's current speed.

    python3 -I perfbench/reference.py

It does what a coilbounds call does, without coilbounds: it starts the
interpreter, imports standard-library modules, builds a table of tuples,
strings and exact fractions, then reads and rewrites it at scattered
places, so that it depends on the memory system as the program does.
Its code never changes, so a change in its time is a change in the host,
not in the program under test.
"""

import argparse  # noqa: F401
import decimal  # noqa: F401
import email.parser  # noqa: F401
import fractions
import json
import statistics  # noqa: F401
import xml.dom.minidom  # noqa: F401

N = 60_000


def work():
    table, index = [], {}
    acc = fractions.Fraction(0)
    for i in range(N):
        key = str(i)
        table.append((i, i * i % 7, key, [i]))
        index[key] = i
        if i % 50 == 0:
            acc += fractions.Fraction(i % 13 + 1, i % 11 + 2)
    x, total = 12345, 0
    for _ in range(N):
        x = (x * 1103515245 + 12345) % 2147483648
        row = table[index[str(x % N)]]
        total += row[1] + row[3][0]
        table[x % N] = (row[0], total % 7, row[2], [x])
    return len(json.dumps(table[::97])), acc, total


if __name__ == "__main__":
    work()
