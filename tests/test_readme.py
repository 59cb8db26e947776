"""README as a test: its command-line examples and its mini-language tables."""

import re
import shlex
from pathlib import Path

import pytest

from circlelab.circle import parse_point
from circlelab.cli import OPS, SUBCOMMANDS, main
from circlelab.density import parse_set_expr
from circlelab.sequences import ArithSeq, RatioSpec

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
LINEAR1 = ArithSeq(RatioSpec.linear(1))


def _section(title):
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def _examples():
    """(command, printed line) pairs of the first code block of "Command line"."""
    block = re.search(r"```\n(.*?)```", _section("Command line"), re.S)[1]
    lines = block.splitlines()
    return [(cmd, out) for cmd, out in zip(lines, lines[1:])
            if cmd.startswith("circlelab ")]


def _forms():
    """(table, form) for every backquoted form in a mini-language table."""
    forms, table = [], None
    for line in _section("Mini-languages").splitlines():
        if line.endswith(":") and not line.startswith("|"):
            table = line.split(" (")[0]
        elif line.startswith("| `") and table:
            forms += [(table, f) for f in re.findall(r"`([^`]+)`", line.split("|")[1])]
    return forms


def _param_rows():
    """operation -> the backquoted cells of its row in the Parameters table."""
    table = _section("Command line").split("### Parameters")[1].split("\n### ")[0]
    return {cells[0].strip("` "): re.findall(r"`([^`]+)`", cells[1])
            for cells in (line.strip("|").split("|") for line in table.splitlines()
                          if line.startswith("| `"))}


EXAMPLES = _examples()
FORMS = _forms()
PARSERS = {
    "Ratio specs": RatioSpec.parse,
    "Index sets": lambda text: parse_set_expr(text, LINEAR1),
    "Points": lambda text: parse_point(text, LINEAR1),
}
# placeholders of the tables, by the text that stands in for them
LISTS = {"v1,v2,...": "2,3", "c1,c2,...": "0,1,1", "n1:m1,...": "1:2,3:3",
         "SPEC": "pow:2", "EXPR": "fin:{3}"}
LETTERS = {"C": "3", "S": "1", "B": "2", "J": "5", "M": "2", "P": "1", "Q": "6"}


def test_readme_lists_what_the_tests_read():
    assert len(EXAMPLES) == 9
    assert {table for table, _ in FORMS} == set(PARSERS)


@pytest.mark.parametrize("command,printed", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_command_line_example(capsys, command, printed):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == printed + "\n"


@pytest.mark.parametrize("table,form", FORMS, ids=[f for _, f in FORMS])
def test_mini_language_form_parses(tmp_path, table, form):
    ratios = tmp_path / "ratios.txt"
    ratios.write_text("# a comment\n3\n4\ntail:const:2\n")
    text = form.replace("PATH", str(ratios))
    for placeholder, value in LISTS.items():
        text = text.replace(placeholder, value)
    text = re.sub(r"\b[A-Z]\b", lambda m: LETTERS[m[0]], text)
    PARSERS[table](text)


def test_parameter_table_matches_the_operations():
    want = {}
    for (sub, name), (_, defaults) in OPS.items():
        pick = SUBCOMMANDS[sub][1]
        want[sub if pick is None else f"{sub} --{pick} {name}"] = [
            key if value is None else f"{key}={value}" for key, value in defaults.items()]
    assert _param_rows() == want
