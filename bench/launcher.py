"""Run the swinscan CLI with every benchmarked layer traced.

    python3 bench/launcher.py SPANS_OUT serve --weights-detect D --weights-classify C --port P

The spans are kept in memory and written to SPANS_OUT as JSON when the
command returns (for `serve`, after SIGINT).
"""

import sys

import spans as SP


def main(argv) -> int:
    out, args = argv[0], argv[1:]
    from swinscan import service

    tracer = SP.Tracer()
    SP.instrument(tracer)
    try:
        return service.main(args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
