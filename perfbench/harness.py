"""Calling bookbind's CLI in-process, one op at a time, with a time limit,
and probing the host's speed while it runs."""

from __future__ import annotations

import bisect
import contextlib
import io
import math
import signal
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter


class OpTimeout(BaseException):
    """Raised by the probe handler when an op runs past its limit.

    A BaseException, so no ``except Exception`` inside bookbind swallows it.
    """


@dataclass
class Call:
    """One ``bookbind.cli.main(argv)`` call as a user would see it."""

    code: int | None = None  # None when the call raised
    out: str = ""
    err: str = ""
    exc: str | None = None  # exception type name, "OpTimeout" when cut off
    message: str = ""  # first line of the exception or of stderr
    seconds: float = 0.0  # wall time of the call, less the probes run inside it


# Host-speed probe.  The host's speed drifts by up to 1.6x over seconds,
# switching between a fast and a slow state about once a second, and a
# plain arithmetic loop does not see it.  A chord-crossing scan over small
# tuples and sets, the kind of work bookbind does, tracks it; it shares no
# code with bookbind, so a change to bookbind cannot move it.  The scan runs
# from a SIGALRM handler every SAMPLE_PERIOD_S for the whole run, inside the
# ops too, so that a slow phase in the middle of a long op is seen.
_PROBE_CHORDS = [tuple(sorted((i, (i * 7 + 3) % 120))) for i in range(0, 120, 2)]
PROBE_REF_S = 0.00062  # what one probe takes on the reference host
SAMPLE_PERIOD_S = 0.025
MIN_WINDOW_S = 0.1  # shorter spans borrow the probes around them

_samples: list[tuple[float, float]] = []  # (start, seconds) of every probe, in order
_probe_total_s = 0.0
_deadline = math.inf  # the running op's limit, as a perf_counter() reading


def _scan() -> None:
    acc = 0
    for i, (a, b) in enumerate(_PROBE_CHORDS):
        for c, d in _PROBE_CHORDS[i + 1 :]:
            if len({a, b, c, d}) < 4:
                acc += 1
            elif a < c < b < d or c < a < d < b:
                acc += 2


def _on_tick(signum, frame):
    global _probe_total_s
    start = perf_counter()
    _scan()
    end = perf_counter()
    _samples.append((start, end - start))
    _probe_total_s += end - start
    if end > _deadline:
        raise OpTimeout()


def start_probes() -> None:
    """Probe the host's speed every SAMPLE_PERIOD_S until ``stop_probes``."""

    signal.signal(signal.SIGALRM, _on_tick)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)


def stop_probes() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def probe_seconds() -> float:
    """Seconds spent in probes so far; subtract the change over a span."""

    return _probe_total_s


def speed(start: float, end: float) -> float:
    """Host speed over ``start``..``end`` relative to the reference host.

    The mean of PROBE_REF_S over each probe's time, over the probes in the
    span, widened to MIN_WINDOW_S around its middle if shorter.  With
    evenly spaced probes, measured seconds times this mean are the seconds
    the span would have taken on the reference host.
    """

    half = max(end - start, MIN_WINDOW_S) / 2
    middle = (start + end) / 2
    lo = bisect.bisect_left(_samples, middle - half, key=lambda s: s[0])
    hi = bisect.bisect_right(_samples, middle + half, key=lambda s: s[0])
    window = _samples[lo:hi] or _samples[max(0, lo - 1) : lo + 1]
    return statistics.mean(PROBE_REF_S / d for _, d in window)


def invoke(argv: list[str], limit_s: float) -> Call:
    """Run ``main(argv)`` with stdout/stderr captured, cut off after ``limit_s``.

    ``main`` is looked up at call time so that a tracer's wrapper is used.
    The probes must be running: their handler enforces the limit.
    """

    global _deadline
    if signal.getsignal(signal.SIGALRM) is not _on_tick:
        raise RuntimeError("invoke() needs start_probes() first")
    main = sys.modules["bookbind.cli"].main
    call = Call()
    out, err = io.StringIO(), io.StringIO()
    probed = _probe_total_s
    start = perf_counter()
    try:
        _deadline = start + limit_s
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            call.code = main(argv)
    except OpTimeout:
        call.exc, call.message = "OpTimeout", f"ran past the {limit_s:.1f} s op limit"
    except Exception as exc:  # a traceback a user would see; recorded, not fatal
        call.exc = type(exc).__name__
        call.message = (str(exc).splitlines() or [""])[0]
    finally:
        _deadline = math.inf
        call.seconds = perf_counter() - start - (_probe_total_s - probed)
    call.out, call.err = out.getvalue(), err.getvalue()
    if call.exc is None and call.code != 0:
        call.message = (call.err.strip().splitlines() or [""])[0]
    return call


@dataclass
class Result:
    """What one op did, as the metrics need it."""

    op: object
    latency_s: float  # censored at the op limit when the op failed
    units: int = 1  # units toward ok_share: rows on sweep, else 1
    units_ok: int = 0
    work_ok: int = 0  # throughput numerator: ok rows, round trips, verifies or orders
    timed: bool = True  # counts toward the latency percentiles
    out_bytes: int = 0
    wrong: list[str] = field(default_factory=list)  # wrong answers
    failures: list[dict] = field(default_factory=list)  # failure-ledger entries
    extra: dict = field(default_factory=dict)
    censored: bool = False  # latency_s is the op limit, not a measurement
    speed: float = 1.0  # host speed during the op, from the probes

    @property
    def adjusted_s(self) -> float:
        """Latency at the reference host speed; a censored latency stays put."""

        return self.latency_s if self.censored else self.latency_s * self.speed


def ledger_entry(workload: str, spec: str, tag: str, call: Call | None, what: str = "") -> dict:
    """One failed op: where, which rule, how it ended and the first message line."""

    if call is None:
        how, message = "not-run", what
    else:
        how = call.exc or f"exit {call.code}"
        message = what or call.message
    return {"workload": workload, "spec": spec, "rule": tag, "how": how, "message": message}


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``.  With twenty samples or fewer no
    percentile at or above the median has ten beyond it; the maximum is
    reported instead, as percentile 100.
    """

    xs = sorted(values)
    n = len(xs)
    if n <= 20:
        return 100.0, xs[-1]
    k = n - 11  # xs[k] has exactly ten samples above it
    return 100.0 * (k + 1) / n, xs[k]
