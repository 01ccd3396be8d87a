"""One benchmark session: a fresh interpreter that imports ``sdxa.cli`` and
then runs a list of commands in-process through ``sdxa.cli.main(argv)``.

Protocol (all on the standard streams of this process):

1. after ``import sdxa.cli`` it writes ``ready`` and a newline;
2. it reads one JSON line: ``{"commands", "seconds", "trace", "spans",
   "session"}``;
3. it runs the commands in order, each with stdout and stderr captured and
   timed with ``perf_counter``, and stops starting new ones once
   ``seconds`` have passed since step 2;
4. it writes one JSON line with the results and exits.

Around the commands it times a fixed pure-Python reference loop that does
not use ``sdxa`` (``probe``): three times before the first command, and
after each command once plus once per whole 0.1 s the command took (at most
ten times).  ``run.py`` reads the machine's speed during a command from the
probes next to it and scales the command's time by it.

Run it only through ``perfbench/run.py``, which sets ``PYTHONPATH`` to the
checkout's ``src``.
"""

import sys

import sdxa.cli

sys.stdout.write("ready\n")
sys.stdout.flush()

import gc  # noqa: E402  (imported after the ready mark: not part of set-up)
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402


# After a command: one probe, plus one per whole PROBE_EVERY seconds it took.
PROBE_EVERY = 0.1
PROBE_MAX = 10
_BASE = (3, 6, 0, 5, 1, 4, 2)


def _reference() -> int:
    """Compose 1,000 permutations of 7 points with a fixed one and count the
    images in a dict: tuple, list and dict work like the program's own."""
    images: dict[tuple, int] = {}
    for p in itertools.islice(itertools.permutations(range(7)), 1000):
        composed = [0] * 7
        for i in range(7):
            composed[p[i]] = p[_BASE[i]]
        key = tuple(composed)
        images[key] = images.get(key, 0) + 1
    return len(images)


def probe(count: int) -> list[float]:
    """Time the reference loop ``count`` times, with the garbage collector
    off so that the probe neither triggers a collection nor moves the
    session's objects between generations (it frees all it allocates)."""
    enabled = gc.isenabled()
    gc.disable()
    times = []
    for _ in range(count):
        start = perf_counter()
        _reference()
        times.append(perf_counter() - start)
    if enabled:
        gc.enable()
    return times


def main() -> None:
    request = json.loads(sys.stdin.readline())
    origin_ns = perf_counter_ns()
    deadline = perf_counter() + request["seconds"]
    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    # probes[0] before the first command, probes[i + 1] after command i
    probes = [probe(3)]
    for index, argv in enumerate(request["commands"]):
        if results and perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.current_command = index
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = sdxa.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a result to report, not to stop on
                traceback.print_exc(file=err)
                code = "traceback"
        elapsed = perf_counter() - start
        results.append(
            {"code": code, "out": out.getvalue(), "err": err.getvalue(), "s": elapsed}
        )
        probes.append(probe(min(PROBE_MAX, 1 + int(elapsed / PROBE_EVERY))))
    reply = {
        "results": results,
        "probes_s": probes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "sdxa_file": sdxa.cli.__file__,
    }
    if tracer is not None:
        reply["trace"] = {
            "spans": len(tracer.start),
            "per_command": tracer.summarize(),
            "counters": tracer.counters,
        }
        tracer.write(request["spans"], request["session"], origin_ns)
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()


main()
