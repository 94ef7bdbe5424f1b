"""One digest of what the CLI answers to every benchmark request.

    python3 tests/report_digest.py [--verbose]

Run from the repository root.  The script generates the requests of the
three perfbench workloads at seeds 1, 2 and 1000003, passes 0-2 (990
requests), writes their problem files to a temporary directory and calls
``paraclaw.cli.main`` on each in this one interpreter, as a benchmark pass
does.  It prints the SHA-256 of every request's exit code, standard output
and standard error, in request order, with the temporary directory's path
replaced by a fixed name.  Two checkouts whose reports are byte-identical
print the same digest.  ``--verbose`` also prints one digest per workload
and seed.

Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 1000003)
PASSES = (0, 1, 2)


def _answer(main, argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from paraclaw import cli
    import problems

    verbose = "--verbose" in sys.argv[1:]
    total, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as workdir:
        for workload in problems.WORKLOADS:
            for seed in SEEDS:
                part = hashlib.sha256()
                for pass_index in PASSES:
                    requests = problems.generate(workload, seed, pass_index)
                    paths = problems.write_files(requests, workdir)
                    for req, path in zip(requests, paths):
                        rc, out, err = _answer(cli.main, problems.argv(req, path))
                        record = f"{rc}\0{out}\0{err}\0".replace(workdir, "<workdir>")
                        part.update(record.encode())
                        total.update(record.encode())
                        count += 1
                if verbose:
                    print(f"{workload} seed {seed}: {part.hexdigest()}")
    print(f"{count} requests: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
