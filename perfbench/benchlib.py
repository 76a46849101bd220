"""Pure helpers of the benchmark: statistics, span arithmetic, open-loop
lateness and output checks.  No I/O and no processes, so the unit tests
in test_benchlib.py can pin each rule down."""

# Rungs for the tail percentile, highest last.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


def percentile(values, p):
    """The p-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values, ladder=TAIL_LADDER):
    """(p, value) for the highest rung p with at least ten samples beyond
    it, or None when even the median has fewer than ten beyond it."""
    n = len(values)
    best = None
    for p in ladder:
        if int(n * (100 - p) / 100.0 + 1e-9) >= 10:
            best = (p, percentile(values, p))
    return best


def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it its
    children cover.  Children may nest or overlap each other (workers of
    one pool run side by side); each covered instant counts once.

    spans: list of (name, start, end, parent, items); parent is an index
    into the list or -1.  Returns a list of self times, one per span.
    """
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = union_length(
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children[idx]
            if spans[c][2] > start and spans[c][1] < end)
        out.append((end - start) - covered)
    return out


def uncovered(spans, wall):
    """Wall time (same unit as the spans) that no top-level span covers."""
    return wall - union_length(
        (s[1], s[2]) for s in spans if s[3] < 0)


def lateness(actual, period):
    """How late each tick of an open-loop schedule started, measured from
    its due time k * period (not from when the previous tick ended, so a
    stall counts against every tick it delays).  Never negative."""
    return [max(0, t - k * period) for k, t in enumerate(actual)]


def check_replay(observed, expected):
    """Mismatches between one `replay` and its library reference.

    Both are dicts with `exit` (int), `reports` (int; for the CLI, the
    count it printed) and `bundles` (incident bundle texts in order).
    Returns a list of mismatch strings."""
    errors = []
    if observed["exit"] != expected["exit"]:
        errors.append("exit %d, expected %d"
                      % (observed["exit"], expected["exit"]))
    if observed["reports"] != expected["reports"]:
        errors.append("%d report(s), expected %d"
                      % (observed["reports"], expected["reports"]))
    if observed["bundles"] != expected["bundles"]:
        errors.append("incident bundles differ from the reference")
    return errors


def parse_reference(text):
    """The `exit/reports/class` lines the reference step writes."""
    out = {"exit": None, "reports": None, "classes": []}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        if key in ("exit", "reports", "events"):
            out[key] = int(value)
        elif key == "class":
            out["classes"].append(value)
    return out


def check_monitor(onsets, bundle_times, incidents_reported, slack):
    """Mismatches of one followed run: no incident before the first
    onset (allowing `slack` for the file-time granularity), at least one
    incident in every drift window, and one bundle per incident."""
    errors = []
    if not onsets:
        return ["the load printed no drift onset"]
    early = [t for t in bundle_times if t < onsets[0] - slack]
    if early:
        errors.append("%d incident(s) before the first onset" % len(early))
    bounds = [t - slack for t in onsets[1:]] + [float("inf")]
    for k, (start, stop) in enumerate(zip(onsets, bounds)):
        if not any(start - slack <= t < stop for t in bundle_times):
            errors.append("no incident after onset %d" % k)
    if incidents_reported != len(bundle_times):
        errors.append("%d incident(s) reported, %d bundle(s) on disk"
                      % (incidents_reported, len(bundle_times)))
    return errors


def detect_latencies(onsets, bundle_times, slack):
    """Per drift window: first bundle time after the onset minus it
    (windows are matched as in check_monitor)."""
    out = []
    bounds = [t - slack for t in onsets[1:]] + [float("inf")]
    for start, stop in zip(onsets, bounds):
        after = [t for t in bundle_times if start - slack <= t < stop]
        if after:
            out.append(min(after) - start)
    return out
