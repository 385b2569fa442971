#!/usr/bin/env python3
"""Print the translation units clang-tidy should check for a change.

Almost all of tamp lives in headers under src/tamp/, which clang-tidy only
sees through the .cpp files that include them.  So the list is

  * every changed src/**/*.cpp and tests/*.cpp, plus
  * every tests/*.cpp that includes, directly or through other tamp
    headers, a changed src/tamp/**/*.hpp

(.clang-tidy's HeaderFilterRegex then reports the findings inside those
headers).  Usage, from the repository root:

    python3 tools/tidy_targets.py origin/main     # space-separated paths

Prints nothing when no C++ file changed.
"""

import glob
import os
import re
import subprocess
import sys

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(tamp/[^"]+)"', re.M)


def includes(path):
    with open(path, encoding="utf-8") as f:
        return {"src/" + inc for inc in INCLUDE_RE.findall(f.read())}


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: tidy_targets.py BASE_REF")
    changed = subprocess.run(
        ["git", "diff", "--name-only", argv[1] + "...HEAD"],
        check=True, capture_output=True, text=True).stdout.split()
    changed = {p for p in changed if os.path.exists(p)}
    targets = {p for p in changed
               if (p.startswith("src/") and p.endswith(".cpp"))
               or re.fullmatch(r"tests/[^/]+\.cpp", p)}
    # Close the changed headers over "is included by", then pick the tests
    # that include any header in the closure.
    headers = glob.glob("src/tamp/**/*.hpp", recursive=True)
    graph = {h: includes(h) for h in headers}
    dirty = {p for p in changed if p in graph}
    grew = True
    while grew:
        grown = {h for h, incs in graph.items() if incs & dirty}
        grew = not grown <= dirty
        dirty |= grown
    if dirty:
        targets |= {t for t in glob.glob("tests/*.cpp")
                    if includes(t) & dirty}
    print(" ".join(sorted(targets)))


if __name__ == "__main__":
    main(sys.argv)
