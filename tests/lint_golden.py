#!/usr/bin/env python3
"""Golden test of jsmm-lint --target: stdout, stderr and exit status.

Runs jsmm-lint --target=NAME over the example litmus directory and the
lint findings fixture, for each of the six Thm 6.3 targets, in the text
and the JSON rendering, and compares the transcript against
tests/fixtures/jsmm_lint_target.golden. The compiled form adds only the
redundant-fence lints; the fixture, which uses control flow, pins the
error for a program outside the uni-size fragment.

    python3 tests/lint_golden.py build/jsmm-lint

Run it from the repository root: file paths appear in the diagnostics, so
they are passed relative to it. After an intended change in output,
regenerate with JSMM_UPDATE_GOLDEN=1 and review the diff.
"""

import difflib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "fixtures", "jsmm_lint_target.golden")

TARGETS = ["x86-tso", "armv8-uni", "armv7", "power", "riscv", "immlite"]
FORMATS = [[], ["--format=json"]]
INPUTS = ["examples/litmus", "tests/fixtures/lint_findings.litmus"]


def transcript(binary):
    out = []
    for target in TARGETS:
        for fmt in FORMATS:
            args = ["--target=" + target] + fmt + INPUTS
            p = subprocess.run([binary] + args, capture_output=True,
                               text=True)
            out.append("$ jsmm-lint %s\n[exit %d]\n%s[stderr]\n%s" %
                       (" ".join(args), p.returncode, p.stdout, p.stderr))
    return "".join(out)


def main():
    if len(sys.argv) != 2:
        sys.stderr.write("usage: lint_golden.py <jsmm-lint binary>\n")
        return 2
    got = transcript(os.path.abspath(sys.argv[1]))
    if os.environ.get("JSMM_UPDATE_GOLDEN") == "1":
        with open(GOLDEN, "w", encoding="utf-8") as f:
            f.write(got)
        print("wrote " + GOLDEN)
        return 0
    with open(GOLDEN, encoding="utf-8") as f:
        want = f.read()
    if got != want:
        sys.stdout.writelines(difflib.unified_diff(
            want.splitlines(True), got.splitlines(True), "golden", "actual"))
        print("jsmm-lint --target transcript differs from the golden "
              "(JSMM_UPDATE_GOLDEN=1 regenerates it)")
        return 1
    print("jsmm-lint --target transcript matches %s" % GOLDEN)
    return 0


if __name__ == "__main__":
    sys.exit(main())
