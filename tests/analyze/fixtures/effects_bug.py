"""A seeded illegal process yield on a branch the program never takes.

``VERBOSE`` is False, so ``worker`` never yields the banner at run time;
the static effect checker flags the yield anyway
(tests/analyze/test_effects.py pins the line).
"""

from repro.sim.engine import Engine

VERBOSE = False


def bad_banner():
    # Every valued return is a str: illegal as a process yield value.
    return "starting up"


def ticks(engine, n):
    for _ in range(n):
        yield engine.timeout(1.0)


def worker(engine, verbose=VERBOSE):
    yield engine.timeout(1.0)
    if verbose:
        yield bad_banner()          # effect-illegal-yield (branch never taken)
    yield from ticks(engine, 2)
    return 0


def main():
    engine = Engine()
    proc = engine.process(worker(engine))
    engine.run(until=proc)


if __name__ == "__main__":
    main()
