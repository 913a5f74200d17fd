"""The modeling phase (Algorithm 1, step 2) as one component.

:class:`SurrogateFitter` owns the surrogate policy of the campaign loop,
under either evaluation policy: backend choice, warm starts (previous
optimum or surrogate cache), posterior extension (``refit_interval``), the
degradation ladder (failed fit → the registry's ``gp`` backend → ``None``,
i.e. random search) and the modeling state a checkpoint carries across
kill/resume.  It draws one seed per objective per full fit from the
driver's seed tree; a downgraded fit reuses that seed for the ``gp`` rung.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...observability.spans import maybe_span
from .registry import BackendSpec, get_backend, select_backend

__all__ = ["SurrogateFitter", "YTransform"]


class YTransform:
    """Per-objective output transform for surrogate fitting."""

    def __init__(self, kind: str):
        self.kind = kind
        self.mean = 0.0
        self.std = 1.0

    def fit(self, y: np.ndarray) -> np.ndarray:
        """Estimate mean/std (of log y for ``"log"``) and transform ``y``."""
        if self.kind != "none":
            v = np.log(np.maximum(y, 1e-300)) if self.kind == "log" else np.asarray(y, float)
            self.mean = float(v.mean())
            self.std = float(v.std()) or 1.0
        return self.transform(y)

    def transform(self, y: np.ndarray) -> np.ndarray:
        """Apply the fitted transform without re-estimating mean/std.

        The posterior-extension path must feed new observations to a model
        in exactly the units the model was fitted in, so intermediate
        iterations reuse the last full refit's statistics.
        """
        v = np.log(np.maximum(y, 1e-300)) if self.kind == "log" else np.asarray(y, float)
        if self.kind == "none":
            return v.copy()
        return (v - self.mean) / self.std


class SurrogateFitter:
    """Per-campaign surrogate policy for :class:`~repro.core.mla.GPTune`.

    ``seed`` draws the next seed-tree child; ``problem_name`` keys the
    optional surrogate ``model_cache``; events go to the campaign log.
    Each campaign hands :meth:`reset` the scheduler its fits map their
    multi-start restart groups over (``None``: one inline group).
    """

    def __init__(
        self,
        options,
        problem_name: str,
        events,
        seed: Callable[[], int],
        model_cache: Optional[Any] = None,
    ):
        self.options = options
        self.problem_name = problem_name
        self.events = events
        self._seed = seed
        self.model_cache = model_cache
        self.reset(0)

    def reset(self, n_tasks: int, pool: Optional[Any] = None) -> None:
        """Start a campaign over ``n_tasks`` tasks with no carryover; its
        fits map their restart groups over ``pool``, owned by the caller."""
        self.pool = pool
        self.n_latent = self.options.n_latent or min(n_tasks, 3)
        self._warm: Dict[int, Dict[str, Any]] = {}
        self._fit_iter = 0
        self._fp_state: Optional[Dict[str, Any]] = None
        self._feat_state: Optional[Dict[str, Any]] = None
        self._backend_last: Dict[int, str] = {}

    # -- modeling phase --------------------------------------------------------
    def fit(
        self, data, featurizer, stats: Dict[str, float]
    ) -> Tuple[List[Any], List[np.ndarray]]:
        """Model-update + modeling phases; returns per-objective surrogates.

        Returns ``(models, ybests)``: per objective, the surrogate
        (``None`` after a full downgrade) and the per-task incumbents in
        the units it was fitted in.  With
        ``refit_interval > 1``, intermediate phases extend each fitted
        posterior with the new rows (O(N²·n_new), no L-BFGS); every k-th
        phase, and any phase where extension is impossible, runs a full fit.

        ``featurizer`` is the campaign's one
        :class:`~repro.core.perfmodel.ModelFeaturizer` (``None`` without
        performance models).  A full fit re-estimates its hyperparameters
        and resets its normalization range over every sample; an extend
        phase freezes both, so the new rows arrive in the units the
        posterior was fitted in.
        """
        with maybe_span("phase.modeling", n=data.n_samples()):
            t0 = time.perf_counter()
            gamma = data.n_objectives
            X, _, tidx = data.stacked(0)
            counts = [data.n_samples(i) for i in range(data.n_tasks)]
            extend_phase = (
                self.options.refit_interval > 1
                and self._fit_iter % self.options.refit_interval != 0
            )

            if featurizer is not None:
                # Extend phases must feed the posterior rows in the units it
                # was fitted in, so the featurizer is frozen (no
                # hyperparameter update, no new normalization range)
                # whenever every objective still has a posterior to extend.
                update = not (
                    extend_phase and all(self._extendable(s) for s in range(gamma))
                )
                if update:
                    extend_phase = False
                    tasks_flat = [data.tasks[i] for i in tidx]
                    cfgs_flat = [x for xs in data.X for x in xs]
                    y0 = np.array([y[0] for ys in data.Y for y in ys])
                    featurizer.update_hyperparameters(tasks_flat, cfgs_flat, y0)
                raw = self._feat_rows(data, featurizer)
                if update:
                    featurizer.observe(raw, reset=True)
                X = np.hstack([X, featurizer.scale(raw)])

            models, ybests = [], []
            fingerprints = self._fingerprints(data)
            for s in range(gamma):
                _, ys, _ = data.stacked(s)
                model = None
                if extend_phase:
                    model = self._extend(data, s, counts, featurizer)
                if model is not None:
                    tr = self._warm[s]["transform"]
                    yt = tr.transform(ys)
                else:
                    tr = YTransform(self.options.y_transform)
                    yt = tr.fit(ys)
                    model, backend = self._fit_one(data, X, yt, tidx, s, fingerprints)
                    if model is not None:
                        self._warm[s] = {
                            "model": model,
                            "backend": backend,
                            "transform": tr,
                            "chunks": [list(counts)],
                        }
                    else:
                        self._warm.pop(s, None)
                models.append(model)
                # per-task incumbents in transformed units
                ybests.append(
                    np.array(
                        [
                            yt[tidx == i].min() if np.any(tidx == i) else np.inf
                            for i in range(data.n_tasks)
                        ]
                    )
                )
            self._fit_iter += 1
            stats["modeling_time"] += time.perf_counter() - t0
            return models, ybests

    def _fit_one(self, data, X, yt, tidx, objective: int, fingerprints=None):
        """Fit the selected backend, degrading gracefully on failure;
        returns ``(model, backend name)``, ``(None, None)`` after a full
        downgrade.

        ``model_backend="auto"`` escalates from the exact to the sparse LCM
        past ``sparse_threshold`` (:func:`select_backend`).  A failed fit
        falls back to the ``gp`` backend with the same seed, then to
        ``None`` (random search); a failing ``gp`` goes straight to
        ``None``.  Each step emits a ``"model-downgrade"`` event; with
        ``model_fallback`` off, failures propagate.  Without a warm θ
        (:meth:`_warm_start`), a θ-carrying backend starts one L-BFGS run
        from a surrogate-cache fit of a subset/superset of our data
        (``fingerprints``).  Every success emits a ``"model-fit"`` event.
        """
        opts = self.options
        n_tasks, beta = data.n_tasks, X.shape[1]
        backend = select_backend(opts.model_backend, X.shape[0], opts.sparse_threshold)
        spec = get_backend(backend)
        n_inducing = opts.n_inducing if backend == "sparse-lcm" else 0
        self._note_backend(backend, objective, int(X.shape[0]))
        theta0, n_start = self._warm_start(objective, spec, n_tasks, beta)
        if spec.supports_theta and theta0 is None and self.model_cache is not None and fingerprints:
            cached = self.model_cache.lookup(
                self.problem_name,
                objective,
                fingerprints,
                n_tasks=n_tasks,
                n_dims=beta,
                n_latent=self.n_latent,
                backend=backend,
                n_inducing=n_inducing,
            )
            if cached is not None:
                theta0 = np.asarray(cached.theta, dtype=float)
                n_start = 1
                self.events.record(
                    "model-cache-hit",
                    f"objective {objective}: warm start from {cached.key[:12]} "
                    f"({len(cached.fingerprints)} record(s) cached, "
                    f"{len(fingerprints)} current)",
                )
        seed = self._seed()
        model = spec.factory(n_tasks, beta, self.n_latent, n_start, seed, self.pool, opts)
        try:
            model.fit(X, yt, tidx, theta0=theta0)
        except Exception as e:
            if not opts.model_fallback:
                raise
            reason = f"{type(e).__name__}: {e}"
        else:
            # a "fit" whose every multi-start diverged (NLL stuck at the
            # Cholesky-failure sentinel) is as useless as a crashed one
            ll = getattr(model, "log_likelihood_", 0.0)
            if np.isfinite(ll) and ll > -1e24:
                self.events.record(
                    "model-fit",
                    f"objective {objective}: backend={backend} n_starts={n_start} "
                    f"n={X.shape[0]} warm={theta0 is not None}",
                    backend=backend,
                    n_starts=n_start,
                    n=int(X.shape[0]),
                )
                if (
                    spec.supports_theta
                    and model.theta is not None
                    and self.model_cache is not None
                    and fingerprints
                ):
                    from ...service.modelcache import CachedFit

                    key = self.model_cache.put(
                        CachedFit(
                            self.problem_name,
                            objective,
                            n_tasks,
                            beta,
                            self.n_latent,
                            model.theta,
                            ll,
                            fingerprints,
                            backend=backend,
                            n_inducing=n_inducing,
                        )
                    )
                    self.events.record(
                        "model-cache-store", f"objective {objective}: {key[:12]}"
                    )
                if getattr(model, "executor", None) is not None:
                    # the pool dies with the campaign; a returned model refits inline
                    model.executor = None
                return model, backend
            if not opts.model_fallback:
                raise RuntimeError(f"{backend} fit diverged and model_fallback is disabled")
            reason = "all multi-starts diverged"
        if backend != "gp":
            self.events.record(
                "model-downgrade",
                f"objective {objective}: {backend} -> per-task gp ({reason})",
            )
            gp = get_backend("gp")
            theta0, n_start = self._warm_start(objective, gp, n_tasks, beta)
            try:
                model = gp.factory(n_tasks, beta, self.n_latent, n_start, seed, self.pool, opts)
                return model.fit(X, yt, tidx, theta0=theta0), gp.name
            except Exception as e:
                backend, reason = "per-task gp", f"{type(e).__name__}: {e}"
        self.events.record(
            "model-downgrade",
            f"objective {objective}: {backend} -> random search ({reason})",
        )
        return None, None

    def _warm_start(
        self, objective: int, spec: BackendSpec, n_tasks: int, beta: int
    ) -> Tuple[Optional[Any], int]:
        """``(theta0, n_start)`` for a full fit of ``spec`` on ``objective``.

        With ``refit_warm_start``, the previous full fit's optimum starts
        the first of ``refit_warm_n_start`` runs: a θ-carrying backend's
        flat θ (one layout for exact and sparse LCM) if the shape is
        unchanged, or for ``gp`` — explicit or the ladder's rung — each
        task's previous GP θ.  Otherwise the fit is cold.
        """
        opts = self.options
        st = self._warm.get(objective) if opts.refit_warm_start else None
        prev = st["model"] if st is not None else None
        if prev is None:
            return None, opts.n_start
        if spec.supports_theta:
            if (
                prev.theta is not None
                and prev.params.delta == n_tasks
                and prev.params.beta == beta
                and prev.params.Q == self.n_latent
            ):
                return np.asarray(prev.theta, dtype=float), opts.refit_warm_n_start
        elif (
            spec.name == st["backend"] == "gp"
            and (prev.n_tasks, prev.n_dims) == (n_tasks, beta)
        ):
            return prev.thetas, opts.refit_warm_n_start
        return None, opts.n_start

    def _note_backend(self, backend: str, objective: int, n_obs: int) -> None:
        """Record a ``model-backend`` event when an objective's backend changes
        (e.g. the ``auto`` escalation), so reports show the backends used."""
        if self._backend_last.get(objective) != backend:
            self._backend_last[objective] = backend
            self.events.record(
                "model-backend",
                f"objective {objective}: {backend} at n={n_obs}",
                backend=backend,
                objective=objective,
                n=n_obs,
            )

    # -- incremental caches ----------------------------------------------------
    def _fingerprints(self, data) -> Optional[frozenset]:
        """Content fingerprints of the data (``None`` without a cache),
        hashing only the rows appended since the last call."""
        if self.model_cache is None:
            return None
        from ...service.store import content_fingerprint

        st = self._fp_state
        if st is None or st["data"] is not data:
            st = {"data": data, "counts": [0] * data.n_tasks, "fps": set()}
            self._fp_state = st
        for i, task in enumerate(data.tasks):
            xs, ys = data.X[i], data.Y[i]
            for k in range(st["counts"][i], len(xs)):
                st["fps"].add(
                    content_fingerprint(
                        {"task": dict(task), "x": dict(xs[k]), "y": [float(v) for v in ys[k]]}
                    )
                )
            st["counts"][i] = len(xs)
        return frozenset(st["fps"])

    def _feat_rows(self, data, featurizer) -> np.ndarray:
        """Raw model-feature rows for every sample, cached incrementally.

        Model predictions depend only on the models' hyperparameters, so as
        long as the featurizer's :meth:`~ModelFeaturizer.state_token` is
        unchanged, rows computed in earlier phases stay valid and only the
        new samples cost a prediction — O(n_new) per refit instead of O(n),
        mirroring the ``_fingerprints`` cache.  A token change (or a model
        that cannot vouch for one) recomputes everything.
        """
        token = featurizer.state_token()
        st = self._feat_state
        if token is None or st is None or st["data"] is not data or st["token"] != token:
            st = {
                "data": data,
                "counts": [0] * data.n_tasks,
                "rows": [[] for _ in range(data.n_tasks)],
                "token": token,
            }
            self._feat_state = st if token is not None else None
        for i in range(data.n_tasks):
            for k in range(st["counts"][i], data.n_samples(i)):
                st["rows"][i].append(featurizer.raw(data.tasks[i], data.X[i][k]))
            st["counts"][i] = data.n_samples(i)
        rows = [r for rs in st["rows"] for r in rs]
        if not rows:
            return np.empty((0, featurizer.n_features))
        return np.vstack(rows)

    # -- posterior extension ---------------------------------------------------
    def _extendable(self, objective: int) -> bool:
        st = self._warm.get(objective)
        return st is not None and hasattr(st["model"], "extend")

    @staticmethod
    def _rows(data, objective: int, prev: Sequence[int], cur: Sequence[int], featurizer):
        """``(X, y, task_index)`` of samples ``prev[i]:cur[i]`` of every task.

        ``y`` is in raw units; with a (frozen) ``featurizer`` the unit rows
        are enriched with the model features.  ``(None, None, None)`` when
        the range is empty.
        """
        blocks, ys, tix = [], [], []
        for i in range(data.n_tasks):
            if cur[i] <= prev[i]:
                continue
            cfgs = [data.X[i][k] for k in range(prev[i], cur[i])]
            units = data.unit_rows(i, prev[i], cur[i])
            if featurizer is not None:
                units = featurizer.enrich(data.tasks[i], cfgs, units, observe=False)
            blocks.append(units)
            ys.extend(data.Y[i][k][objective] for k in range(prev[i], cur[i]))
            tix.extend([i] * len(cfgs))
        if not blocks:
            return None, None, None
        return np.vstack(blocks), np.asarray(ys, dtype=float), np.asarray(tix, dtype=int)

    def _extend(self, data, objective: int, counts: Sequence[int], featurizer=None):
        """Extend the previous phase's posterior with the new rows.

        Returns the extended model, or ``None`` when extension is impossible
        (no extendable previous fit, or the update fails numerically) — the
        caller then falls back to a full refit.
        """
        if not self._extendable(objective):
            return None
        st = self._warm[objective]
        model = st["model"]
        Xn, yn, tn = self._rows(data, objective, st["chunks"][-1], counts, featurizer)
        if Xn is not None and Xn.shape[1] != model.params.beta:
            return None
        try:
            if Xn is not None:
                model.extend(Xn, st["transform"].transform(yn), tn)
        except Exception as e:
            self.events.record(
                "model-downgrade",
                f"objective {objective}: posterior extension failed, refitting "
                f"({type(e).__name__}: {e})",
            )
            return None
        if Xn is not None:
            # per-task row counts after each extend: chunks[-1] is what the
            # posterior holds, and a resume replays the *same* chunked
            # extends (one big extend is not bitwise equal to the sequence)
            st["chunks"].append(list(counts))
        n_new = 0 if tn is None else len(tn)
        self.events.record(
            "model-extend",
            f"objective {objective}: n_new={n_new} n={sum(st['chunks'][-1])} n_starts=0",
        )
        return model

    # -- checkpoint state --------------------------------------------------------
    def snapshot(self, featurizer=None) -> Optional[Dict[str, Any]]:
        """Modeling state for :class:`RunCheckpoint.modeling`.

        What a resume cannot rederive from the data: the refit cadence
        (``fit_iter``), each objective's warm posterior (its backend, θ,
        output transform, and the extend chunk boundaries whose replay
        rebuilds the Cholesky bitwise), and the featurizer state.  ``None``
        without ``refit_warm_start``, ``refit_interval > 1`` or a
        featurizer, which keeps the checkpoint at version 1.  A posterior
        is captured when its model has ``refit_at`` — the exact LCM (θ one
        flat list) and ``gp`` (θ one list per task, ``None`` for a task
        without a GP); sparse-LCM warm state is not, and refits cold on
        resume.
        """
        opts = self.options
        if opts.refit_interval <= 1 and not opts.refit_warm_start and featurizer is None:
            return None
        warm: Dict[str, Any] = {}
        for s, st in self._warm.items():
            model = st["model"]
            if not hasattr(model, "refit_at"):
                continue
            if st["backend"] == "gp":
                theta = [None if t is None else t.tolist() for t in model.thetas]
            else:
                theta = model.theta.tolist()
            tr: YTransform = st["transform"]
            warm[str(s)] = {
                "backend": st["backend"],
                "theta": theta,
                "transform": {"kind": tr.kind, "mean": float(tr.mean), "std": float(tr.std)},
                "chunks": [[int(c) for c in chunk] for chunk in st["chunks"]],
            }
        snap: Dict[str, Any] = {"fit_iter": int(self._fit_iter), "warm": warm}
        if featurizer is not None:
            snap["featurizer"] = featurizer.get_state()
        return snap

    def restore(self, snap: Optional[Mapping[str, Any]], data, featurizer=None) -> None:
        """Rebuild the refit cadence, warm posteriors and featurizer state.

        Every failure degrades to a cold start for that piece (a full refit
        on the next modeling phase) with a ``"model-downgrade"`` event —
        resuming must never be worse than starting the modeling over.
        """
        if not snap:
            return
        self._fit_iter = int(snap.get("fit_iter", 0))
        if featurizer is not None and snap.get("featurizer") is not None:
            try:
                featurizer.set_state(snap["featurizer"])
            except Exception as e:
                self.events.record(
                    "model-downgrade",
                    "featurizer state restore failed, re-estimating "
                    f"({type(e).__name__}: {e})",
                )
        for key, w in snap.get("warm", {}).items():
            s = int(key)
            try:
                st = self._rebuild(s, w, data, featurizer)
            except Exception as e:
                st = None
                self.events.record(
                    "model-downgrade",
                    f"objective {s}: warm-posterior rebuild failed, will refit "
                    f"({type(e).__name__}: {e})",
                )
            if st is not None:
                self._warm[s] = st
            else:
                self._warm.pop(s, None)

    def _rebuild(self, objective: int, w: Mapping[str, Any], data, featurizer):
        """Reconstruct one objective's warm posterior from checkpoint state.

        The entry's backend (``exact-lcm`` when it names none, as version-2
        checkpoints written before ``gp`` was captured do) builds the model.
        The base chunk is refactorized at the checkpointed θ via
        ``refit_at`` (:meth:`LCM.refit_at`: one ``_nll_and_grad`` evaluation
        — the same code path the original fit's winning restart ended on —
        per task for ``gp``), then each subsequent chunk is replayed
        through ``extend`` exactly as the original campaign applied it.
        Returns ``None`` when the checkpoint holds no usable rows.
        """
        chunks = [list(map(int, c)) for c in w["chunks"]]
        if not chunks or not any(chunks[-1]):
            return None
        tr = YTransform(str(w["transform"]["kind"]))
        tr.mean = float(w["transform"]["mean"])
        tr.std = float(w["transform"]["std"])
        X0, y0, t0 = self._rows(data, objective, [0] * data.n_tasks, chunks[0], featurizer)
        if X0 is None:
            return None
        backend = str(w.get("backend", "exact-lcm"))
        # n_start=1, seed=0: refit_at/extend never draw from the rng, and a
        # rebuild must not consume a seed-tree child
        model = get_backend(backend).factory(
            data.n_tasks, X0.shape[1], self.n_latent, 1, 0, None, self.options
        )
        model.refit_at(X0, tr.transform(y0), t0, w["theta"])
        for prev, cur in zip(chunks, chunks[1:]):
            Xn, yn, tn = self._rows(data, objective, prev, cur, featurizer)
            if Xn is not None:
                model.extend(Xn, tr.transform(yn), tn)
        return {
            "model": model,
            "backend": backend,
            "transform": tr,
            "chunks": chunks,
        }
