"""Count the code lines of each module under src/segscan.

A code line holds at least one token that is not a comment, a docstring or
layout (newlines and indentation): blank lines, comment lines and docstrings
count for nothing, and a statement or string spanning several lines counts
each of them.  A docstring is a string that forms a statement on its own.

Run from the repository root:  python tools/code_lines.py [directory]
It prints one line per module, then the total.
"""

import sys
import tokenize
from pathlib import Path

# the tokens that can precede a statement; with ENDMARKER, those that carry
# no code once comments and blank-line newlines are dropped
STATEMENT_EDGE = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
LAYOUT = STATEMENT_EDGE | {tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    with path.open("rb") as handle:
        tokens = [
            tok
            for tok in tokenize.tokenize(handle.readline)
            if tok.type not in (tokenize.COMMENT, tokenize.NL)
        ]
    rows = set()
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        docstring = (
            tok.type == tokenize.STRING
            and tokens[i - 1].type in STATEMENT_EDGE
            and tokens[i + 1].type == tokenize.NEWLINE
        )
        if not docstring:
            rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main(root: str = "src/segscan") -> None:
    total = 0
    for path in sorted(Path(root).rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(*sys.argv[1:])
