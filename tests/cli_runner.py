"""An in-process runner for ``wqent.cli.main`` that records its exit code and what it wrote.

``CliRunner().invoke(main, args)`` calls ``main(args)`` with ``sys.stdout`` and
``sys.stderr`` captured. The result has ``exit_code``, ``stdout``, ``stderr``
and ``output``, both streams in the order they were written. An exception
other than ``SystemExit`` propagates, so a test fails on it with its traceback.
"""

import contextlib
import io
from dataclasses import dataclass


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str


class _Stream(io.StringIO):
    """One captured stream; every write also goes to ``shared``."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, text: str) -> int:
        self.shared.write(text)
        return super().write(text)


class CliRunner:
    def invoke(self, main, args) -> Result:
        output = io.StringIO()
        out, err = _Stream(output), _Stream(output)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(args))
            except SystemExit as exc:
                code = exc.code
        return Result(code or 0, out.getvalue(), err.getvalue(), output.getvalue())
