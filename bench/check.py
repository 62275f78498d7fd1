"""Correctness check of a CLI record stream against the exact oracle.

The check is not timed.  It separates two kinds of finding:

* problems: the stream itself is wrong -- unparseable lines, missing or
  extra records, ids out of order, a summary that disagrees with the
  stream.  Any problem makes the run incorrect.
* failures: pairs whose label disagrees with ``tritri.oracle`` while the
  oracle's slack is at or above ``SLACK_FLOOR``, or whose oracle call
  raises anything but the documented input errors.  Failures are counted
  against the pairs checked and reported as ``failed_share``; they are
  defects of the kernel, not of the run.
"""

import json
from dataclasses import dataclass, field

SLACK_FLOOR = 1e-8  # the acceptance suite's floor: below it both routes may legally differ
CONTACT_CASES = frozenset({"touch_point", "crossing_segment", "coplanar_contour"})
CASES = CONTACT_CASES | {"parallel_planes", "coplanar_no_contact", "crossing_planes_no_contact"}
MESH_SAMPLE = 500  # non-emitted mesh candidates checked per run (about 0.5 s of oracle)


@dataclass
class CheckResult:
    checked: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # first few failing pairs, for the report

    def fail(self, key, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{key}: {detail}")


def parse_records(stream: bytes):
    """Records of a JSONL stream, or a problem string."""
    records = []
    for lineno, line in enumerate(stream.decode("utf-8").splitlines(), start=1):
        try:
            rec = json.loads(line)
        except ValueError:
            return None, f"line {lineno} is not JSON"
        if not isinstance(rec, dict) or rec.get("case") not in CASES or "id" not in rec:
            return None, f"line {lineno} is not a result record"
        records.append(rec)
    return records, None


def _oracle_label(t1, t2):
    """(label value, slack) from the oracle; label None for documented input errors."""
    # imported here: the caller first puts the checkout's package on sys.path
    from tritri.errors import DegenerateTriangle, NonFiniteInput
    from tritri.oracle import oracle_intersect

    try:
        ref = oracle_intersect(t1, t2)
    except (DegenerateTriangle, NonFiniteInput):
        return None, 0.0
    return ref.label.value, ref.slack


def _agree(result: CheckResult, key, t1, t2, got: str, allowed=None) -> None:
    """Count one checked pair; ``allowed`` widens the accepted labels."""
    result.checked += 1
    try:
        want, slack = _oracle_label(t1, t2)
    except Exception as exc:  # any other error is a defect the check must count
        result.fail(key, f"oracle raised {type(exc).__name__}: {exc}")
        return
    ok = got == want if allowed is None else want in allowed
    if not ok and not (0.0 < slack < SLACK_FLOOR):
        result.fail(key, f"got {got}, oracle {want} (slack {slack:.3g})")


def check_stream(inputs, stream: bytes, summary: dict | None, rng) -> CheckResult:
    """Check one record stream of ``inputs``; ``rng`` draws the mesh sample."""
    result = CheckResult()
    records, problem = parse_records(stream)
    if problem:
        result.problems.append(problem)
        return result

    if inputs.mode == "pair":
        ids = [rec["id"] for rec in records]
        if ids != list(range(inputs.candidates)):
            result.problems.append(f"expected ids 0..{inputs.candidates - 1} in order, "
                                   f"got {len(ids)} records")
            return result
        for rec in records:
            _agree(result, rec["id"], *inputs.pair(rec["id"]), rec["case"])
        return result

    n_a, n_b = len(inputs.tris_a), len(inputs.tris_b)
    keys = []
    for rec in records:
        key = rec["id"]
        if not (isinstance(key, list) and len(key) == 2 and all(type(x) is int for x in key)):
            result.problems.append(f"record id {key!r} is not a face pair")
            return result
        i, j = key
        if not (0 <= i < n_a and 0 <= j < n_b) or (inputs.same_mesh and i >= j):
            result.problems.append(f"record id {key} is not a candidate")
        elif rec["case"] not in CONTACT_CASES:
            result.problems.append(f"record {key} is {rec['case']}, not a contact")
        keys.append((i, j))
    if keys != sorted(set(keys)):
        result.problems.append("mesh record ids are not strictly increasing")
    if summary is None:
        result.problems.append("no summary line on stderr")
    elif summary.get("pairs") != inputs.candidates or summary.get("emitted") != len(records):
        result.problems.append(f"summary counts {summary.get('pairs')} pairs and "
                               f"{summary.get('emitted')} contacts; expected "
                               f"{inputs.candidates} and {len(records)}")
    if result.problems:
        return result

    for key, rec in zip(keys, records):
        _agree(result, list(key), *inputs.pair(key), rec["case"])
    emitted = set(keys)
    for k in rng.sample(range(inputs.candidates), min(MESH_SAMPLE, inputs.candidates)):
        key = inputs.candidate(k)
        if key not in emitted:
            _agree(result, list(key), *inputs.pair(key), "no record",
                   allowed=CASES - CONTACT_CASES)
    return result
