"""Run one stokesbc campaign in this process and record when its phases end.

    python perfbench/child.py RESULT_JSON TRACE VERB [STOKESBC ARGS...]

Run with src/ on PYTHONPATH.  This does what the ``stokesbc`` console
script does (``stokesbc.cli.main``), and also writes RESULT_JSON with
``time.monotonic()`` stamps (CLOCK_MONOTONIC on Linux, so they compare with
the parent's) taken when the config is resolved and around the verb body.
With TRACE=1 the spans.py wrappers are installed for the campaign, and the
span summary plus every span go into RESULT_JSON as well.  The exit code is
the CLI's.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    result_path, trace, verb = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    import stokesbc.cli as cli

    stamps = {"started": STARTED, "imported": time.monotonic()}
    load_config = cli._load_config
    body = cli._COMMANDS[verb]

    def resolved_config(*args, **kwargs):
        cfg = load_config(*args, **kwargs)
        stamps["config"] = time.monotonic()
        return cfg

    def timed_body(*args, **kwargs):
        stamps["body_start"] = time.monotonic()
        try:
            return body(*args, **kwargs)
        finally:
            stamps["body_end"] = time.monotonic()

    cli._load_config = resolved_config
    cli._COMMANDS[verb] = timed_body
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        cli.main(args=sys.argv[3:], prog_name="stokesbc")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        if tracer is not None:
            tracer.restore()
    result = {"code": code, "stamps": stamps}
    if tracer is not None:
        result["trace"] = spans.summary(tracer)
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
