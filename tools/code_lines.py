#!/usr/bin/env python3
"""Count the workspace's non-test Rust source lines.

Reads every `.rs` file under `crates/*/src` and `src`. Each `#[cfg(test)]`
item is left out, from the attribute through the `;` or closing `}` that
ends the item it marks. Of the lines that remain, "total" counts all of
them and "code" leaves out blank lines and lines that hold only a `//`
comment (doc comments included).

Usage: python3 tools/code_lines.py [--per-file] [ROOT]

ROOT defaults to the repository this script lives in. `--per-file` also
prints each file's total and code lines, largest code count first.
"""

import argparse
import pathlib
import sys


def structure(text):
    """Yields (line, char) for each `{`, `}` and `;` outside comments and literals."""
    i, line, n = 0, 1, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("/*", i):
            depth = 0
            while i < n:
                if text.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif text.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                    if depth == 0:
                        break
                else:
                    line += text[i] == "\n"
                    i += 1
        elif c == "r" and (text.startswith('r"', i) or text.startswith('r#', i)) and (
            i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")
        ):
            j = i + 1
            while j < n and text[j] == "#":
                j += 1
            if j < n and text[j] == '"':
                close = '"' + "#" * (j - i - 1)
                end = text.find(close, j + 1)
                end = n if end < 0 else end + len(close)
                line += text.count("\n", i, end)
                i = end
            else:
                i += 1
        elif c == '"':
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    i += 1
                line += i < n and text[i] == "\n"
                i += 1
            i += 1
        elif c == "'":
            # A char literal ('x', '\n', '\u{7b}') or a lifetime ('a).
            if text.startswith("\\", i + 1):
                end = text.find("'", i + 3)
                i = n if end < 0 else end + 1
            elif i + 2 < n and text[i + 2] == "'":
                i += 3
            else:
                i += 1
        else:
            if c in "{};":
                yield line, c
            i += 1


def test_lines(text, lines):
    """Returns the 1-based line numbers that belong to `#[cfg(test)]` items."""
    starts = [k + 1 for k, l in enumerate(lines) if l.strip() == "#[cfg(test)]"]
    if not starts:
        return set()
    marks = list(structure(text))
    skipped = set()
    for start in starts:
        depth, end = 0, len(lines)
        for line, c in marks:
            if line < start:
                continue
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    end = line
                    break
            elif depth == 0:
                end = line
                break
        skipped.update(range(start, end + 1))
    return skipped


def count(path):
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    skipped = test_lines(text, lines)
    total = code = 0
    for k, l in enumerate(lines, start=1):
        if k in skipped:
            continue
        total += 1
        s = l.strip()
        if s and not s.startswith("//"):
            code += 1
    return total, code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--per-file", action="store_true", help="print each file's counts")
    ap.add_argument("root", nargs="?", default=pathlib.Path(__file__).resolve().parent.parent)
    args = ap.parse_args()
    root = pathlib.Path(args.root)
    files = sorted(root.glob("crates/*/src/**/*.rs")) + sorted(root.glob("src/**/*.rs"))
    if not files:
        sys.exit(f"no Rust sources under {root}")
    rows = [(f.relative_to(root).as_posix(), *count(f)) for f in files]
    if args.per_file:
        for name, total, code in sorted(rows, key=lambda r: (-r[2], r[0])):
            print(f"{code:6} {total:6}  {name}")
    print(f"total {sum(r[1] for r in rows)} lines, code {sum(r[2] for r in rows)} lines, "
          f"{len(rows)} files")


if __name__ == "__main__":
    main()
