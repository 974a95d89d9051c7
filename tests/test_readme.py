"""The README's Library quickstart and Command line examples run as written."""

import ast
import os
import re
import shlex

from ionmodes import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_block(heading, lang):
    """The first fenced `lang` block after `heading` in the README."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    fence = "```%s\n" % lang
    begin = text.index(fence, text.index("\n%s\n" % heading)) + len(fence)
    return text[begin:text.index("```", begin)]


def test_quickstart_runs_and_prints_its_values():
    source = readme_block("## Library quickstart", "python")
    lines = source.splitlines()
    namespace, printed = {}, {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], type_ignores=[]), README, "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), README, "eval"), namespace)
        # a value the README prints as a rounded decimal: `# 0.396241...`
        shown = re.search(r"#\s*(\d+\.(\d+))\.\.\.", lines[node.lineno - 1])
        if shown:
            printed[shown.group(1)] = (value, len(shown.group(2)))
    assert sorted(printed) == ["0.13618", "0.396241", "0.597156"]
    for text, (value, decimals) in printed.items():
        assert abs(value - float(text)) <= 0.5 * 10.0**-decimals, (text, value)


def test_command_line_examples_exit_zero(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative --out paths land in tmp_path
    block = readme_block("## Command line", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert [argv[0] for argv in commands] == ["ionmodes"] * 6
    for argv in commands:
        assert cli.main(argv[1:]) == cli.EXIT_OK, argv
        capsys.readouterr()
    assert sorted(os.listdir(tmp_path)) == ["rows.csv", "rows.csv.manifest.json"]
