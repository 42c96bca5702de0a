"""The Pready and rendezvous control plane runs as event chains, not processes.

A small eager Fig 8 point reaches every converted body: the watcher,
the progression-thread dispatch and its internal Pready, the device's
host-flag stores and kernel copies, the copy engine's staged puts, and
the rendezvous CTS, data put and FIN.  None may spawn a process, and
the pop count must stay at the value the generator bodies gave.
"""

from fnmatch import fnmatch

from repro.sim.process import Process
from repro.workload.registry import get

#: Process names the converted generator bodies used to spawn under.
CONVERTED = (
    "preq.watch*", "pready_tp*", "*.pe.*", "hflag[*", "kcopy[*",
    "*.cts", "*.rndv", "rndv_data", "put[*",
)

#: Pops of ``fig8`` at multiplier 1 and 4 iterations (chains and generators alike).
FIG8_POINT_POPPED = 6299


def test_fig8_point_spawns_no_converted_process(monkeypatch):
    spawned = []
    init = Process.__init__

    def counting_init(self, engine, gen, name=None):
        init(self, engine, gen, name)
        spawned.append(self.name)

    monkeypatch.setattr(Process, "__init__", counting_init)
    result = get("fig8").run(multipliers=(1,), iters=4)
    assert spawned  # the ranks, loops and kernels are still processes
    converted = sorted({n for n in spawned if any(fnmatch(n, p) for p in CONVERTED)})
    assert converted == []
    assert result.events_popped == FIG8_POINT_POPPED
