#!/usr/bin/env python3
"""Golden test of the jsmm-run command line: stdout, stderr and exit status.

Runs jsmm-run over the example litmus files under every backend and flag
set, plus the error paths (unknown model, parse error, a target run
outside the uni-size fragment, a too-large armv8 run, the init-directive
refusals) and the --arm / --scdrf / --stats extras, and compares the
transcript against tests/fixtures/jsmm_run_cli.golden.

    python3 tests/cli_golden.py build/jsmm-run

Run it from the repository root: file paths appear in diagnostics, so
they are passed relative to it. After an intended change in output,
regenerate with JSMM_UPDATE_GOLDEN=1 and review the diff.
"""

import difflib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "fixtures", "jsmm_run_cli.golden")

EXAMPLES = [
    "examples/litmus/fig6_shape.litmus",
    "examples/litmus/mp_sc_flag.litmus",
    "examples/litmus/sb_sc.litmus",
    "examples/litmus/sb_wide_500.litmus",
    "examples/litmus/sb_wide_65.litmus",
]
MODELS = ["original", "armfix", "revised", "strong", "armv8", "x86-tso",
          "armv8-uni", "armv7", "power", "riscv", "immlite"]
FLAG_SETS = [[], ["--no-static"], ["--reduce=off"]]

MP = "examples/litmus/mp_sc_flag.litmus"
CLI = "tests/fixtures/cli/"


def runs():
    for path in EXAMPLES:
        for model in MODELS:
            for flags in FLAG_SETS:
                yield [path, "--model=" + model] + flags
    yield ["--list-models"]
    yield [MP, "--model=armv9"]
    yield [MP, "--model=differential"]
    yield ["examples/litmus/no_such_file.litmus"]
    yield [CLI + "parse_error.litmus"]
    yield [CLI + "mixed_size.litmus", "--model=x86-tso"]
    yield [CLI + "mixed_size.litmus", "--arm"]
    yield [CLI + "init.litmus", "--model=armv8"]
    yield [CLI + "init.litmus", "--arm"]
    yield [MP, "--model=x86-tso", "--arm"]
    yield [MP, "--arm"]
    yield [MP, "--scdrf"]
    yield [MP, "--stats"]
    yield [MP, "--arm", "--stats"]
    yield [MP, "--scdrf", "--stats"]
    yield ["examples/litmus/sb_sc.litmus", "--stats"]
    yield ["examples/litmus/fig6_shape.litmus", "--stats"]
    yield ["examples/litmus/fig6_shape.litmus", "--model=x86-tso", "--stats"]
    yield ["examples/litmus/fig6_shape.litmus", "--model=armv8", "--stats"]


def transcript(binary):
    out = []
    for args in runs():
        p = subprocess.run([binary] + args, capture_output=True, text=True)
        out.append("$ jsmm-run " + " ".join(args) + "\n")
        out.append("[exit %d]\n" % p.returncode)
        out.append("[stdout]\n" + p.stdout)
        out.append("[stderr]\n" + p.stderr)
    return "".join(out)


def main():
    if len(sys.argv) != 2:
        sys.stderr.write("usage: cli_golden.py <jsmm-run binary>\n")
        return 2
    got = transcript(os.path.abspath(sys.argv[1]))
    if os.environ.get("JSMM_UPDATE_GOLDEN") == "1":
        with open(GOLDEN, "w", encoding="utf-8") as f:
            f.write(got)
        print("wrote " + GOLDEN)
        return 0
    with open(GOLDEN, encoding="utf-8") as f:
        want = f.read()
    if got == want:
        print("jsmm-run CLI transcript matches %s" % GOLDEN)
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        want.splitlines(True), got.splitlines(True), "golden", "actual"))
    print("jsmm-run CLI transcript differs from the golden "
          "(JSMM_UPDATE_GOLDEN=1 regenerates it)")
    return 1


if __name__ == "__main__":
    sys.exit(main())
