#!/usr/bin/env python3
"""Golden test of jsmm-batch differential verdict tables.

Runs jsmm-batch --model=differential over the built-in corpus, the large
corpus, the example litmus directory and the 300-store fixture, each under
{default, --no-static, --reduce=off}, and compares the JSONL job stream
(stdout and exit status; stderr carries timings and is not compared)
against tests/fixtures/jsmm_batch_differential.golden.

It also checks the promise of `jsmm-batch --help` that verdicts do not
depend on the flags: per job, the status, `allowed`,
`soundness_violations` and `observable_weakenings` must be identical
across the three flag sets.

    python3 tests/batch_golden.py build/jsmm-batch

Run it from the repository root: file paths appear in the job stream, so
they are passed relative to it. After an intended change in output,
regenerate with JSMM_UPDATE_GOLDEN=1 and review the diff.
"""

import difflib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "fixtures", "jsmm_batch_differential.golden")

SOURCES = [
    ["--corpus"],
    ["--corpus=large"],
    ["examples/litmus"],
    ["tests/fixtures/cli/sc_stores_300.litmus"],
]
FLAG_SETS = [[], ["--no-static"], ["--reduce=off"]]
VERDICT_KEYS = ("status", "allowed", "soundness_violations",
                "observable_weakenings")


def run_all(binary):
    """Yields (source, flags, exit status, stdout) per run."""
    for source in SOURCES:
        for flags in FLAG_SETS:
            p = subprocess.run([binary] + source + ["--model=differential"] +
                               flags, capture_output=True, text=True)
            yield source, flags, p.returncode, p.stdout


def flag_mismatches(results):
    """Jobs whose verdict fields differ between flag sets."""
    bad = []
    by_source = {}
    for source, flags, _, stdout in results:
        jobs = [json.loads(line) for line in stdout.splitlines() if line]
        by_source.setdefault(tuple(source), []).append((flags, jobs))
    for source, runs in by_source.items():
        base_flags, base = runs[0]
        for flags, jobs in runs[1:]:
            if len(jobs) != len(base):
                bad.append("%s: %d jobs under %s, %d under %s" %
                           (" ".join(source), len(base), base_flags or
                            "defaults", len(jobs), " ".join(flags)))
                continue
            for want, got in zip(base, jobs):
                for key in VERDICT_KEYS:
                    if want.get(key) != got.get(key):
                        bad.append("%s job %s: '%s' differs under %s" %
                                   (" ".join(source), want.get("name"), key,
                                    " ".join(flags)))
    return bad


def main():
    if len(sys.argv) != 2:
        sys.stderr.write("usage: batch_golden.py <jsmm-batch binary>\n")
        return 2
    results = list(run_all(os.path.abspath(sys.argv[1])))
    got = "".join("$ jsmm-batch %s\n[exit %d]\n%s" %
                  (" ".join(source + ["--model=differential"] + flags),
                   status, stdout)
                  for source, flags, status, stdout in results)
    failed = False
    for msg in flag_mismatches(results):
        print("flag-dependent verdict: " + msg)
        failed = True
    if os.environ.get("JSMM_UPDATE_GOLDEN") == "1":
        with open(GOLDEN, "w", encoding="utf-8") as f:
            f.write(got)
        print("wrote " + GOLDEN)
        return 1 if failed else 0
    with open(GOLDEN, encoding="utf-8") as f:
        want = f.read()
    if got != want:
        sys.stdout.writelines(difflib.unified_diff(
            want.splitlines(True), got.splitlines(True), "golden", "actual"))
        print("jsmm-batch differential stream differs from the golden "
              "(JSMM_UPDATE_GOLDEN=1 regenerates it)")
        failed = True
    if not failed:
        print("jsmm-batch differential stream matches %s" % GOLDEN)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
