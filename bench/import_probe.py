"""Time ``import nama.cli`` in this fresh interpreter.

    python3 bench/import_probe.py <src directory>

Prints the import time in seconds scaled to the reference speed (see
reference.py; the kernel is sampled every 20 ms during the import), then
the raw import time.
"""

import sys
import time

import reference


def main(src: str) -> None:
    sys.path.insert(0, src)
    with reference.SpeedClock(interval=0.02) as speed:
        start, paused = time.perf_counter(), speed.paused
        import nama.cli  # noqa: F401

        end = time.perf_counter()
    raw = end - start - (speed.paused - paused)
    print(raw * speed.factor(start, end), raw)


if __name__ == "__main__":
    main(sys.argv[1])
