"""Fault-tolerant evaluation and campaign checkpointing.

Real autotuning campaigns treat evaluation failures as the common case, not
the exception: exascale application runs crash, hang, return NaN, or get the
whole tuning driver killed mid-campaign.  This module provides the three
building blocks the MLA driver uses to survive them:

* :class:`RetryPolicy` / :func:`run_with_retries` — bounded retries with
  exponential backoff and *deterministic seeded jitter*, plus an optional
  per-attempt timeout (each timed attempt runs on its own daemon thread).
  Every objective call in
  :meth:`repro.core.problem.TuningProblem.evaluate_outcome` is routed through
  this machinery and summarized in an :class:`EvalOutcome` record, which is
  the evaluation's whole record: the module keeps no state between calls,
  so an evaluation behaves the same in the driver, a thread or a forked
  process worker.
* :class:`RunCheckpoint` — a JSON snapshot of a running campaign (per-task
  evaluation sets, RNG fast-forward state, iteration counter, phase stats)
  written atomically after every sampling/search batch, so a killed campaign
  resumes via :meth:`repro.core.mla.GPTune.resume` exactly where it stopped.
* :func:`atomic_write_json` — the crash-safe temp-file + rename writer shared
  with :class:`repro.core.history.HistoryDB`.

The module is deliberately free of :mod:`repro.core` imports so the core
layers can depend on it without cycles, and imports numpy only where a
jittered backoff or an evaluation needs it: the history service's client,
router and shard supervisor use :class:`RetryPolicy` without loading it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import tempfile
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..observability.spans import maybe_span
from .durable import fsync_dir

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EvalOutcome",
    "EvalTimeoutError",
    "FatalEvaluationError",
    "RetryPolicy",
    "RunCheckpoint",
    "atomic_write_json",
    "run_with_retries",
]


class FatalEvaluationError(ValueError):
    """A non-retryable evaluation defect (e.g. wrong objective shape).

    :func:`run_with_retries` propagates this immediately: retrying a
    programming error only multiplies the damage.
    """


class EvalTimeoutError(TimeoutError):
    """An evaluation exceeded its :attr:`RetryPolicy.timeout` budget."""


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How to re-run a flaky objective evaluation.

    Attributes
    ----------
    max_attempts:
        Total tries per evaluation (1 = no retry).
    timeout:
        Per-attempt wall-clock cap in seconds; a hung objective is abandoned
        (its thread is orphaned — black boxes cannot be killed portably) and
        the attempt counts as a ``"timeout"`` failure.  ``None`` disables.
    backoff:
        Base delay in seconds before the second attempt (0 = immediate).
    backoff_factor:
        Multiplier applied per subsequent attempt (exponential backoff).
    jitter:
        Fractional spread added on top of the exponential delay.  The jitter
        is *deterministic*: attempt ``k`` draws from a generator seeded by
        ``(seed, k)``, so a replayed campaign sleeps the same schedule.
    seed:
        Seed for the jitter stream (``None`` behaves like 0).

    Every float attribute must be finite; NaN and infinity raise
    ``ValueError`` naming the attribute.
    """

    max_attempts: int = 1
    timeout: Optional[float] = None
    backoff: float = 0.0
    backoff_factor: float = 2.0
    jitter: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("timeout", "backoff", "backoff_factor", "jitter"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    def delay(self, attempt: int) -> float:
        """Seconds to wait after failed attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = self.backoff * self.backoff_factor ** (attempt - 1)
        if base <= 0 or self.jitter == 0:
            return base
        import numpy as np

        u = np.random.default_rng([int(self.seed or 0), int(attempt)]).random()
        return base * (1.0 + self.jitter * float(u))

    def schedule(self, n: int) -> List[float]:
        """The deterministic backoff schedule for ``n`` failed attempts."""
        return [self.delay(a) for a in range(1, n + 1)]


@dataclasses.dataclass
class EvalOutcome:
    """Record of one (possibly retried) objective evaluation.

    ``value`` is the length-γ result vector — the real observation on
    success, the problem's penalty vector after exhausted retries, or
    ``None`` while unresolved.  ``events`` accumulates ``(kind, detail)``
    pairs (``"retry"``, ``"timeout"``, ``"eval-failure"``) so drivers can
    replay them into a campaign log even when the evaluation ran in a worker
    process.
    """

    value: Optional[np.ndarray]
    attempts: int
    wall_time: float
    failure_kind: Optional[str] = None  # "exception" | "nonfinite" | "timeout"
    error: Optional[BaseException] = None
    message: str = ""
    events: List[Tuple[str, str]] = dataclasses.field(default_factory=list)

    @property
    def failed(self) -> bool:
        """Whether every attempt failed (value is a penalty or ``None``)."""
        return self.failure_kind is not None


def _call_with_timeout(call: Callable[[], Any], timeout: Optional[float]) -> Any:
    """Run ``call`` with an optional wall-clock cap.

    A timed call runs on its own daemon thread (named ``repro-eval``),
    joined for at most ``timeout`` seconds.  A call still running then is
    abandoned — Python cannot kill threads — and its eventual result is
    discarded; the thread exits when the call returns.  No thread outlives
    its call, and none is shared, so a forked process inherits nothing to
    wait on.  An objective that raises :class:`TimeoutError` *itself*
    within the budget propagates that original error, not
    :class:`EvalTimeoutError`.
    """
    if timeout is None:
        return call()
    box: List[Tuple[bool, Any]] = []

    def run() -> None:
        try:
            box.append((True, call()))
        except BaseException as e:  # noqa: BLE001 - relayed to the caller
            box.append((False, e))

    thread = threading.Thread(target=run, name="repro-eval", daemon=True)
    thread.start()
    thread.join(timeout)
    if not box:
        raise EvalTimeoutError(f"evaluation exceeded {timeout:g}s")
    ok, value = box[0]
    if not ok:
        raise value
    return value


def run_with_retries(
    call: Callable[[], Any],
    policy: Optional[RetryPolicy] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> EvalOutcome:
    """Run ``call`` under a retry policy and classify the outcome.

    ``call`` must return a value convertible to a float vector.  Attempts
    failing with an exception, a non-finite result, or a timeout are retried
    up to ``policy.max_attempts`` with the policy's deterministic backoff;
    :class:`FatalEvaluationError` is never retried.  On exhaustion the
    returned outcome has ``value=None`` and the last failure's kind/error.

    Every failed attempt records a per-attempt event of its failure kind
    (``"timeout"``, ``"exception"``, ``"nonfinite"``) before any ``"retry"``
    event, so a campaign log shows *what each attempt did*, not just the
    final classification.  Backoff waits are timed as ``"retry.backoff"``
    spans when telemetry is on.
    """
    import numpy as np

    policy = policy or RetryPolicy()
    events: List[Tuple[str, str]] = []
    t0 = time.perf_counter()
    kind: Optional[str] = None
    error: Optional[BaseException] = None
    message = ""
    for attempt in range(1, policy.max_attempts + 1):
        try:
            y = _call_with_timeout(call, policy.timeout)
        except FatalEvaluationError:
            raise
        except EvalTimeoutError as e:
            kind, error, message = "timeout", None, str(e)
            events.append(("timeout", f"attempt {attempt}: {e}"))
        except Exception as e:
            kind, error, message = "exception", e, f"{type(e).__name__}: {e}"
            events.append(("exception", f"attempt {attempt}: {message}"))
        else:
            y = np.atleast_1d(np.asarray(y, dtype=float))
            if np.all(np.isfinite(y)):
                return EvalOutcome(
                    value=y,
                    attempts=attempt,
                    wall_time=time.perf_counter() - t0,
                    events=events,
                )
            kind, error, message = "nonfinite", None, f"non-finite value {y}"
            events.append(("nonfinite", f"attempt {attempt}: {message}"))
        if attempt < policy.max_attempts:
            delay = policy.delay(attempt)
            events.append(
                ("retry", f"attempt {attempt} failed ({kind}); backoff {delay:.3g}s")
            )
            if delay > 0:
                with maybe_span("retry.backoff", attempt=attempt, delay_s=delay):
                    sleep(delay)
    events.append(
        ("eval-failure", f"{policy.max_attempts} attempt(s) exhausted ({kind}: {message})")
    )
    return EvalOutcome(
        value=None,
        attempts=policy.max_attempts,
        wall_time=time.perf_counter() - t0,
        failure_kind=kind,
        error=error,
        message=message,
        events=events,
    )


# -- crash-safe persistence ---------------------------------------------------
def _json_default(obj: Any) -> Any:
    # a NumPy value can only exist once numpy is loaded
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.generic):
            return obj.item()
        if isinstance(obj, np.ndarray):
            return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def atomic_write_json(path: str, obj: Any, indent: Optional[int] = None) -> None:
    """Write ``obj`` as JSON via temp file + rename so a crash mid-write
    can never leave a truncated file at ``path`` (NumPy scalars/arrays are
    converted to builtins).

    Durable as well as atomic: the temp file is fsynced before the rename
    and the directory after it, so after a power cut ``path`` holds either
    the previous or the new complete content, never an empty file whose
    data blocks were not yet written.
    """
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=indent, default=_json_default)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    fsync_dir(d)


@dataclasses.dataclass
class RunCheckpoint:
    """Resumable snapshot of one MLA campaign.

    Captures everything :meth:`repro.core.mla.GPTune.tune` needs to continue
    a killed run with byte-identical decisions: the per-task evaluation sets
    (``X``/``Y``), the master RNG entropy plus how many child seeds were
    already spawned (``spawn_count`` — resuming fast-forwards the seed tree
    instead of replaying it), the iteration counter, and the phase stats.

    ``pending`` records evaluations that were *in flight* when an async
    campaign (``Options(async_eval=True)``) checkpointed: one entry
    ``{"task", "x", "eta"}`` per outstanding evaluation, in submission
    order, where ``eta`` is the remaining virtual duration under a
    :class:`~repro.runtime.async_engine.SimScheduler` (``None`` for real
    executors).  Resuming resubmits them first, preserving the original
    completion schedule.  A lockstep resume of such a checkpoint resubmits
    them too and drains them before its first barrier round, so none is
    lost.

    ``campaign_id`` names the campaign: a random hex string drawn when it
    starts and kept by every resume.  The campaign archives each evaluation
    under the rid ``f"{campaign_id}:{task}:{k}"`` (``k`` its per-task
    sample index), so a round that reached the history before a crash and
    is evaluated again after the resume is stored once.  ``None`` (a
    checkpoint written before the field existed) makes the resumed run
    draw a fresh id.

    ``modeling`` (version 2) snapshots the modeling warm state
    (:meth:`~repro.core.model.fitter.SurrogateFitter.snapshot`) so lockstep
    and async campaigns running ``Options(refit_interval > 1)`` or
    ``Options(refit_warm_start=True)`` resume bit-identically: the
    modeling-phase counter (``fit_iter``) plus, per objective with an exact
    LCM, the winning hyperparameter vector (``theta``), the fitted
    y-transform, and the per-extend chunk boundaries (``chunks`` — per-task
    row counts after the base fit and after each extension, replayed
    verbatim on resume because chunked Cholesky updates are not bitwise
    equal to one combined update), and — when the campaign enriches inputs
    with performance models — the featurizer's running normalization range
    and model hyperparameters.  ``None`` (and every version-1 checkpoint)
    means "no warm state": resume refits from scratch, which is correct but
    only bit-identical when neither option is set.

    The ``version`` field is derived, not caller-set: a checkpoint carrying
    ``modeling`` is version 2; one without is version 1, byte-compatible
    with readers that predate the field.
    """

    problem: str
    entropy: Any
    spawn_count: int
    n_samples: int
    tasks: List[Dict[str, Any]]
    frozen: List[int]
    iteration: int
    stats: Dict[str, float]
    X: List[List[Dict[str, Any]]]
    Y: List[List[List[float]]]
    pending: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    modeling: Optional[Dict[str, Any]] = None
    campaign_id: Optional[str] = None
    version: int = 1

    def __post_init__(self) -> None:
        self.version = 2 if self.modeling is not None else 1

    def save(self, path: str) -> None:
        """Persist atomically as JSON (see :func:`atomic_write_json`).

        Checkpoints without modeling warm state are written as version 1 —
        byte-compatible with readers that predate the ``modeling`` field."""
        obj = dataclasses.asdict(self)
        if self.modeling is None:
            del obj["modeling"]
        atomic_write_json(path, obj)

    @classmethod
    def load(cls, path: str) -> "RunCheckpoint":
        """Load and validate a checkpoint; raises ``ValueError`` naming the
        path when the file is truncated, corrupted, or from another layout."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: corrupted checkpoint ({e})") from e
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: malformed checkpoint (expected an object)")
        names = {f.name for f in dataclasses.fields(cls)}
        required = {
            f.name
            for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        }
        missing = required - set(raw)
        if missing:
            raise ValueError(f"{path}: checkpoint missing fields {sorted(missing)}")
        if int(raw.get("version", 1)) not in (1, 2):
            raise ValueError(
                f"{path}: unsupported checkpoint version {raw['version']}"
            )
        ck = cls(**{k: raw[k] for k in names if k in raw})
        if len(ck.X) != len(ck.tasks) or len(ck.Y) != len(ck.tasks):
            raise ValueError(f"{path}: checkpoint X/Y do not match its task list")
        return ck
