"""The README's library example runs as printed and gives the results
its comments show."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> list[str]:
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library example")) + len("```python\n")
    return text[start : text.index("```", start)].splitlines()


def test_the_library_example_gives_its_commented_results():
    # a comment line holds the repr of the expression on the line above it
    namespace: dict = {}
    pending: list[str] = []
    checked = []
    for line in library_example():
        if line.startswith("# "):
            *statements, expression = pending
            exec("\n".join(statements), namespace)
            checked.append((repr(eval(expression, namespace)), line[2:]))
            pending = []
        else:
            pending.append(line)
    exec("\n".join(pending), namespace)
    assert len(checked) == 3
    for got, expected in checked:
        assert got == expected
