"""The CLI's exit contract over generated inputs and sinks, run in process.

Every run either returns a documented exit code (0/1/2/3) or stops with
argparse's usage exit, SystemExit(2); no other exception escapes
cli.main. A returned 2 leaves exactly one `error:` line on stderr. The
draws weigh output sinks (an --out path that is a missing directory, a
directory or a full device; a stdout that is full or has lost its reader)
and manifest framing (quotes, NUL, CR, a byte-order mark, a field longer
than csv's 131,072-character limit, bytes that are not UTF-8) above the
numeric options, whose values stay small so each example runs in
milliseconds.
"""

import errno
import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from heatcg import cli


class FailingStream(io.TextIOBase):
    """A text stream whose writes and flushes fail with one errno."""

    def __init__(self, code):
        self.code = code

    def write(self, text):
        raise OSError(self.code, os.strerror(self.code))

    def flush(self):
        raise OSError(self.code, os.strerror(self.code))


STDOUTS = st.sampled_from(["ok", "ok", errno.ENOSPC, errno.EPIPE])
REALS = st.sampled_from(
    ["1", "0", "-1", "0.5", "-1e3", "1e-300", "1e-320", "1e200", "nan", "inf", "x", ""]
)
NUMERIC_OPTIONS = st.one_of(
    st.tuples(st.sampled_from(["--gamma", "--length", "--t-left", "--t-right", "--tol",
                               "--threshold", "--unit-budget-ms"]), REALS),
    st.tuples(st.just("--cells"), st.sampled_from(["1", "2", "3", "17", "40", "0", "-2", "x"])),
    st.tuples(st.just("--max-iters"), st.sampled_from(["1", "5", "200", "0", "-1", "1.5"])),
    st.tuples(st.just("--storage"), st.sampled_from(["dense", "crs", "sparse"])),
)
OUT_TARGETS = ["missing/x.csv", ".", "good.csv", "/dev/full"]
SINK_OPTIONS = st.tuples(st.just("--out"), st.sampled_from(OUT_TARGETS))
OPTIONS = st.lists(st.one_of(SINK_OPTIONS, SINK_OPTIONS, NUMERIC_OPTIONS), max_size=4)
BUDGETS = st.sampled_from(["100", "100", "1", "0.5", "0", "nan", "x"])
BUDGET_OPTIONS = st.tuples(st.just("--unit-budget-ms"), BUDGETS) | SINK_OPTIONS

HEADER = "layer,name,duration_ms,status"
GOOD_ROWS = st.builds(
    "{},{},{},{}".format,
    st.sampled_from(["unit", "unit", "integration", "system"]), st.sampled_from(["a", "b"]),
    st.sampled_from(["1.0", "250", "0"]), st.sampled_from(["ok", "ok", "fail", "timeout"]),
)
FIELDS = st.sampled_from(
    ["unit", "ok", "1.0", "", "-1", "nan", "1e400", '"', '"q, "" x"', "a\x00b", "a\rb",
     "\ufeffunit", "x" * 131_073]
)
FRAMED_ROWS = st.lists(FIELDS, min_size=3, max_size=5).map(",".join)
MANIFEST_TEXT = st.builds(
    lambda bom, header, rows, end: ("\ufeff" if bom else "")
    + end.join(([HEADER] if header else []) + rows) + end,
    st.sampled_from([False] * 4 + [True]), st.sampled_from([True] * 4 + [False]),
    st.lists(GOOD_ROWS | GOOD_ROWS | FRAMED_ROWS, max_size=6),
    st.sampled_from(["\n", "\r\n", "\r"]),
)
MANIFEST_BYTES = st.builds(  # sometimes ends in a byte that is not UTF-8
    lambda text, tail: text.encode("utf-8") + tail,
    MANIFEST_TEXT, st.sampled_from([b"", b"", b"\xff\n"]),
)
MANIFEST_PATHS = st.sampled_from(["manifest.csv", "manifest.csv", "missing.csv", "."])
IN_WORKDIR = {"missing/x.csv", ".", "good.csv", "manifest.csv", "missing.csv"}


def run_main(argv, stdout, workdir):
    """cli.main's outcome: (code, stderr), where code is a return value or SystemExit's."""
    out = io.StringIO() if stdout == "ok" else FailingStream(stdout)
    err = io.StringIO()
    argv = [os.path.join(workdir, arg) if arg in IN_WORKDIR else arg for arg in argv]
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, exc.code
            return "usage", err.getvalue()
    return code, err.getvalue()


def check(code, err):
    assert code == "usage" or code in (0, 1, 2, 3), code
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error: "), err


@settings(max_examples=200)
@given(st.sampled_from(["solve", "verify"]), OPTIONS, STDOUTS)
def test_a_heat_command_exits_with_a_documented_code(command, options, stdout):
    argv = [command, "--cells", "3"] + [token for pair in options for token in pair]
    with tempfile.TemporaryDirectory() as workdir:
        check(*run_main(argv, stdout, workdir))


@settings(max_examples=200)
@given(MANIFEST_BYTES, MANIFEST_PATHS, st.lists(BUDGET_OPTIONS, max_size=1), STDOUTS)
def test_a_pyramid_audit_exits_with_a_documented_code(manifest, path, options, stdout):
    argv = ["pyramid", path] + [token for pair in options for token in pair]
    with tempfile.TemporaryDirectory() as workdir:
        with open(os.path.join(workdir, "manifest.csv"), "wb") as stream:
            stream.write(manifest)
        check(*run_main(argv, stdout, workdir))
