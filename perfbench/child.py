"""One CLI invocation in a fresh interpreter, timed from inside.

Usage: python child.py SPEC.json

SPEC names the source tree, the CLI argv, the set-up functions to probe,
whether to trace, and where to write the result.  The child imports
geoplasma from the given source tree, runs ``geoplasma.cli.main`` and
writes a JSON result: the monotonic time at which ``main`` was called
(import done), the time it returned (output written), the time spent in
and the number of calls of each probed set-up function, the exit code,
peak RSS and, when tracing, the per-function call counts and self times.

The probed set-up functions are the scenario module's public
``load_scenario`` and input generators (``evaluation_points``,
``sheet_axes_and_values``) as ``geoplasma.cli`` bound them.  Everything
else ``main`` does is work, however the subcommand arranges it.  The only
code added to an untraced run is one thin timing wrapper per probed
function.
"""

import json
import os
import resource
import sys
import time


class SetupProbe:
    """Times every call of the probed set-up functions."""

    def __init__(self):
        self.ns = 0
        self.calls = {}

    def wrap(self, name, fn):
        def probed(*args, **kwargs):
            start = time.monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ns += time.monotonic_ns() - start
                self.calls[name] = self.calls.get(name, 0) + 1

        return probed

    def install(self, module, names):
        for name in names:
            setattr(module, name, self.wrap(name, getattr(module, name)))


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import geoplasma.cli as cli

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import ROOT_NAME, Tracer

        tracer = Tracer()
        tracer.install()
    probe = SetupProbe()
    probe.install(cli, spec["setup"])

    if tracer:
        tracer.open_span(ROOT_NAME)
    main_ns = time.monotonic_ns()
    try:
        code = cli.main(spec["argv"])
    finally:
        end_ns = time.monotonic_ns()
        if tracer:
            tracer.close_span(True)
    sys.stdout.flush()
    result = {
        "exit_code": code,
        "main_ns": main_ns,
        "end_ns": end_ns,
        "setup_call_ns": probe.ns,
        "setup_calls": probe.calls,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.write_spans(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
