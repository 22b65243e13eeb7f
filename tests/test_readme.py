"""The numbers README.md quotes, recomputed from the code they describe.

Each test reads the figure from the README text itself, so a README edit that
changes a quoted value, or a code change that moves it, fails here.
"""

import pathlib
import re

from cli_runner import CliRunner
from wqent import BipartiteState, DensityMatrix, WeightMatrix, check_subadditivity
from wqent.cli import load_matrix, main
from wqent.sweeps import sweep_probabilities, sweep_weights

from csv_oracle import grid_to_csv_per_cell

ROOT = pathlib.Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
COUNTEREXAMPLE = ROOT / "tests" / "fixtures" / "noncommuting_counterexample"


def quick_tour() -> str:
    """The Python block under "Library quick tour"."""
    section = README.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def quoted_lines(block: str) -> list[tuple[str, str]]:
    """``(expression, quote)`` of each line that is an expression alone with a comment: the quote is the
    comment's first word, up to a comma or a colon."""
    out = []
    for line in block.splitlines():
        m = re.fullmatch(r"([\w.]+)\s+# ([^,:\s]+).*", line)
        if m:
            out.append(m.groups())
    return out


def test_quick_tour_runs_and_gives_the_values_its_comments_quote():
    block = quick_tour()
    quotes = quoted_lines(block)
    assert [e for e, _ in quotes] == ["rep.gap", "rep.condition_holds", "rep.subadditivity_holds"]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    for expression, quote in quotes:
        value = eval(expression, namespace)
        if quote.endswith("..."):
            assert repr(value).startswith(quote[:-3]), (expression, value, quote)
        else:
            assert repr(value) == quote, (expression, value, quote)


def test_qutrit_call_prints_the_quoted_first_line():
    m = re.search(r"its first line is\s+`([^`]+)`:\s+```\n(wqent qutrit [^\n]+)\n```", README)
    first_line, command = m.groups()
    assert first_line == "mutual_information = 0.0728012633763"
    result = CliRunner().invoke(main, command.split()[1:])
    assert result.exit_code == 0 and result.stderr == ""
    assert result.stdout.splitlines()[0] == first_line


def test_counterexample_figures_match_the_fixture():
    paragraph = README.split("Outside the commuting family", 1)[1].split("\n\n", 1)[0]
    quoted = dict(re.findall(r"`(condition_gap|gap)` (-?\d+\.\d+)", paragraph))
    assert set(quoted) == {"condition_gap", "gap"}
    rho = DensityMatrix(load_matrix(str(COUNTEREXAMPLE / "rho.json")))
    wa, wb = (WeightMatrix(load_matrix(str(COUNTEREXAMPLE / f"{name}.json"))) for name in ("phi_a", "phi_b"))
    report = check_subadditivity(wa, wb, BipartiteState(rho, 2, 2))
    assert report.condition_holds and not report.subadditivity_holds
    for name, text in quoted.items():
        # the quote is the value rounded to the digits it shows
        decimals = len(text.split(".")[1])
        assert round(getattr(report, name), decimals) == float(text), (name, getattr(report, name), text)


def test_figure_commands_write_the_grids_the_oracle_renders(tmp_path, monkeypatch):
    m = re.search(r"The three (\d+)x\1 figure grids come from the CLI.*?```\n(.*?)```", README, re.S)
    grid_n, commands = int(m.group(1)), [line.split() for line in m.group(2).splitlines()]
    assert grid_n == 97
    assert [c[:3] for c in commands] == [["wqent", "sweep", "prob"]] + [["wqent", "sweep", "weight"]] * 2
    monkeypatch.chdir(tmp_path)
    for command in commands:
        args = command[1:]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0 and result.output == ""
        written = (tmp_path / args[args.index("--out") + 1]).read_bytes()
        comments = [line[2:] for line in written.decode("ascii").splitlines() if line.startswith("# ")]
        if args[1] == "prob":
            grid = sweep_probabilities(grid_n)
        else:
            grid = sweep_weights(args[args.index("--region") + 1], grid_n)
        assert written == grid_to_csv_per_cell(grid, comments).encode(), command
