"""Job pools of the four workloads and the check each job's output must pass.

A job is one ``fractree`` command line, run in-process through
``fractree.cli.main``.  Every job states the exit code the README
documents for it; a job fails if it raises, exits with another code, or
prints output that fails its check.  Jobs marked with a ``defect`` are
known to fail today and stay in their pools so the failure stays visible.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

EXPECTED = Path(__file__).with_name("expected.json")

INT_STR_LIMIT = "int->str conversion limit (4300 digits) raises ValueError, exit 1 with a traceback"


@dataclass(frozen=True)
class Job:
    argv: tuple
    check: str           # key into CHECKS
    expect_rc: int = 0   # exit code the README documents for this job
    defect: str = ""     # known defect that makes the job fail today

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _job(cmd: str, check: str, expect_rc: int = 0, defect: str = "") -> Job:
    return Job(tuple(cmd.split()), check, expect_rc, defect)


POOLS = {
    # Dense Bareiss on Laplacian minors of order 150-400 does almost all the
    # work: the workload on which sparse elimination must show its gain.
    "matrix-tree": [
        _job("count cycle 4 3 2 --method all", "agree"),
        _job("count cycle 3 2 3 --method all", "agree"),
        _job("count wheel 4 2 2 --method all", "agree"),
        _job("count cycle 5 3 2 --method all", "agree"),
        _job("count cycle 6 3 2 --method all", "agree"),
        _job("count wheel 5 2 2 --method all", "agree"),
        _job("count cycle 3 2 6 --method blocks", "count"),
        _job("count wheel 4 2 4 --method blocks", "count"),
        _job("count cycle 3 2 7 --method blocks", "count", defect=INT_STR_LIMIT),
    ],
    # Construction, block decomposition, exports and the clustering scan on
    # graphs of 1.5e4 to 3.2e5 vertices; never calls a determinant.  Several
    # jobs cost about the same near the median and near the tail, so those
    # two statistics do not jump from one job type to another between runs.
    "build-scan": [
        _job("generate wheel 5 2 4", "export"),
        _job("generate wheel 4 2 5", "export"),
        _job("generate cycle 3 2 7", "export"),
        _job("generate wheel 5 2 4 --format json", "export"),
        _job("generate wheel 4 2 5 --format dot", "export"),
        _job("generate cycle 4 2 5 --format dot", "export"),
        _job("generate cycle 3 2 7 --format json", "export"),
        _job("invariants clustering cycle 3 2 --stage 8", "clustering"),
        _job("invariants clustering wheel 5 2 --stage 4", "clustering"),
        _job("invariants census cycle 3 2 --stage 7", "match"),
        _job("invariants census wheel 4 2 --stage 4", "match"),
        _job("invariants census wheel 5 2 --stage 4", "match"),
        _job("invariants degrees wheel 5 2 --stage 4", "match"),
        _job("invariants degrees cycle 4 2 --stage 5", "match"),
        _job("invariants degrees cycle 3 2 --stage 7", "match"),
    ],
    # The whole cross-check suite: ~110 small graphs, hundreds of tiny
    # determinants next to a few large ones.
    "verify-full": [
        _job("verify", "verify"),
    ],
    # Graph-free closed forms: factored counts expanded to 1e2..1e4+ digits,
    # entropy limits, size recurrences and the entropy surface.
    "closed-forms": [
        _job("count cycle 3 2 4 --method formula", "count"),
        _job("count cycle 3 2 5 --method formula", "count"),
        _job("count cycle 3 2 6 --method formula", "count"),
        _job("count wheel 4 2 3 --method formula --json", "count"),
        _job("count wheel 6 3 3 --method formula --json", "count"),
        _job("count cycle 5 3 4 --method formula", "count"),
        _job("count cycle 3 2 7 --method formula", "count", defect=INT_STR_LIMIT),
        _job("count wheel 6 3 4 --method formula --json", "count", defect=INT_STR_LIMIT),
        _job("count cycle 3 2 12 --method formula", "count", expect_rc=3,
             defect="expansion over the bit cap exits 2 (usage), not 3 (resource cap)"),
        _job("invariants entropy cycle 5 2", "entropy"),
        _job("invariants entropy wheel 4 3 --iters 400", "entropy"),
        _job("invariants entropy cycle 7 3 --iters 400", "entropy"),
        _job("invariants sizes wheel 5 3 -i 3 --upto 200", "sizes"),
        _job("invariants sizes cycle 3 2 -i 8 --upto 200", "sizes"),
        # three surfaces of about equal cost, so the tail lands on one of
        # them whether a run makes 5 passes or 9
        _job("surface cycle 3..64 2..64", "surface"),
        _job("surface wheel 3..56 2..64", "surface"),
        _job("surface wheel 9..64 2..64", "surface"),
    ],
}


def load_expected() -> dict:
    """Pinned digests: job key -> sha256 of stdout (verify: of its verdict map)."""
    return json.loads(EXPECTED.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def size_counts(family: str, n: int, m: int, i: int) -> tuple:
    """(vertices, edges) of the stage-i graph from the growth recurrences."""
    vr, er = (n, n) if family == "cycle" else (n + 1, 2 * n)
    u, e = 1, 0
    for _ in range(i + 1):
        u, e = vr * u + (m - 1) * e, er * u + m * e
    return u, e


def _params(argv) -> tuple:
    """(family, n, m, i) from the positional parameters of a job."""
    words = list(argv)
    first = 2 if words[0] == "invariants" else 1
    family, n, m = words[first], int(words[first + 1]), int(words[first + 2])
    if "--stage" in words:
        i = int(words[words.index("--stage") + 1])
    elif "-i" in words:
        i = int(words[words.index("-i") + 1])
    else:
        i = int(words[first + 3])
    return family, n, m, i


_COUNT_LINE = re.compile(r"^([a-z-]+): (?:\S+ = )?(\d+) \((\d+) digits\)$")


def _check_counts(job, out):
    values = []
    for line in out.splitlines():
        match = _COUNT_LINE.match(line)
        if match:
            method, value, digits = match.groups()
            if len(value) != int(digits):
                return f"{method}: {len(value)} digits printed, {digits} stated"
            values.append(value)
    if "--json" in job.argv:
        payload = json.loads(out)["formula"]
        values.append(payload["decimal"])
        if len(payload["decimal"]) != payload["digits"]:
            return "json digits disagree with the decimal"
    if not values:
        return "no count printed"
    if len(set(values)) != 1:
        return "methods print different counts"
    return None


def _check_agree(job, out):
    if out.splitlines()[-1:] != ["agreement: all methods agree"]:
        return "no agreement line"
    return _check_counts(job, out)


def _check_export(job, out):
    fmt = job.argv[job.argv.index("--format") + 1] if "--format" in job.argv else "edgelist"
    if fmt == "edgelist":
        pairs = [line.split() for line in out.splitlines()]
        vertices, edges = 1 + max(int(x) for pair in pairs for x in pair), len(pairs)
    elif fmt == "json":
        payload = json.loads(out)
        vertices, edges = len(payload["vertices"]), len(payload["edges"])
    else:
        vertices, edges = out.count(" [color="), out.count(" -- ")
    want = size_counts(*_params(job.argv))
    if (vertices, edges) != want:
        return f"exported {vertices} vertices, {edges} edges; recurrence gives {want}"
    return None


def _check_match(job, out):
    return None if out.splitlines()[-1:] == ["match: True"] else "census does not match"


def _check_clustering(job, out):
    return None if json.loads(out).get("match") is True else "clustering does not match"


VERIFY_SUMMARY = "checks: 139  match: 129  informational: 10  mismatch: 0"
_VERDICTS = {"MATCH", "MISMATCH", "INFO"}


def verdict_map(out: str) -> str:
    """Sorted "id verdict" lines of a verify table."""
    rows = (line.split(None, 2)[:2] for line in out.splitlines())
    return "".join(f"{cid} {tag}\n" for cid, tag in sorted((c, t) for t, c in rows
                                                           if t in _VERDICTS))


def _check_verify(job, out):
    if out.splitlines()[-1:] != [VERIFY_SUMMARY]:
        return "verify summary differs from " + VERIFY_SUMMARY
    return None


def _check_entropy(job, out):
    lines = out.splitlines()
    return None if len(lines) == 3 and lines[0].startswith("offset-stage: ") else "bad entropy"


def _check_sizes(job, out):
    family, n, m, i = _params(job.argv)
    vertices, edges = size_counts(family, n, m, i)
    want = f"stage-{i} graph: {vertices} vertices, {edges} edges"
    return None if out.splitlines()[-1:] == [want] else "sizes differ from the recurrence"


def _check_surface(job, out):
    n_lo, n_hi = map(int, job.argv[2].split(".."))
    m_lo, m_hi = map(int, job.argv[3].split(".."))
    rows = (n_hi - n_lo + 1) * (m_hi - m_lo + 1)
    return None if len(out.splitlines()) == rows + 1 else "wrong surface row count"


CHECKS = {
    "agree": _check_agree,
    "count": _check_counts,
    "export": _check_export,
    "match": _check_match,
    "clustering": _check_clustering,
    "verify": _check_verify,
    "entropy": _check_entropy,
    "sizes": _check_sizes,
    "surface": _check_surface,
}


def check_output(job: Job, out: str, expected: dict):
    """None if the output is right, else the reason it is not."""
    reason = CHECKS[job.check](job, out)
    if reason:
        return reason
    digest = sha256(verdict_map(out) if job.check == "verify" else out)
    pinned = expected.get(job.key)
    if pinned is None:
        return None if job.defect else "no pinned digest"
    return None if digest == pinned else "output digest differs from the pinned one"
