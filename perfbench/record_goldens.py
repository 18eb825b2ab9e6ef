"""Record golden.json: every workload document's output at the current code.

Usage, from the root of a checkout: python3 perfbench/record_goldens.py

Runs each document of run.WORKLOADS in this process with seed 0, drops the
``seed`` field of seeded documents (the checks put the run's seed back),
and refuses to write when a document fails or the outputs break one of the
identities in ``checks.validate_goldens``.  Run it only on code whose output
is known good; the benchmark compares every later run against the file.
"""

import contextlib
import io
import json
import sys

import checks
from run import SRC, WORKLOADS, document_argv


def main() -> int:
    sys.path.insert(0, str(SRC))
    from meanderq import cli

    goldens = {}
    for templates in WORKLOADS.values():
        for template in templates:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(document_argv(template, 0))
            if rc != 0:
                sys.stderr.write(f"error: {template} exited {rc}\n")
                return 1
            doc = json.loads(buf.getvalue())
            if "{seed}" in template:
                del doc["seed"]
            goldens[template] = doc
    problems = checks.validate_goldens(goldens)
    if problems:
        sys.stderr.write("error: outputs fail the golden identities:\n  " + "\n  ".join(problems) + "\n")
        return 1
    checks.GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} documents to {checks.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
