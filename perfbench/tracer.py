"""Spans and counts around the package's layers, recorded from outside it.

Each public function of interest is replaced, at the name its caller looks
it up by (``factorize.spd_solve`` for the trainer's solves,
``textcnn.mean_loss`` for the fit's evaluation passes, ...), with a wrapper
that appends one span (name, start, end, parent, work) to an in-memory list.
``work`` is a count taken from the call (records parsed, documents fitted,
bytes written); it is None where the call count alone is the work.  Spans
are written out only after the round's timed window has closed.

A layer's self time is its span's duration minus the time its child spans
cover; children are nested synchronous calls, so their intervals never
overlap.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

from biconvmf import cli, corpus, evaluate, factorize, serialize, textcnn


class Tracer:
    def __init__(self):
        self.spans: list = []       # (name, start, end, parent index or -1, work)
        self._stack: list[int] = []
        self._bundle = None         # bundle of the training call in progress

    def wrap(self, module, attr: str, name, work=None):
        """Replace module.attr by a span-recording wrapper.

        name is the span name, or a callable (args, kwargs) -> name;
        work is an optional callable (args, kwargs, result) -> count.
        """
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, None)
            if work is not None:
                spans[idx] = (label, start, end, parent, work(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)

    def _train_label(self, args, kwargs):
        self._bundle = args[0] if args else kwargs["bundle"]
        return "factorize.train"

    def _fit_label(self, args, kwargs):
        docs = args[1] if len(args) > 1 else kwargs["docs"]
        user_docs = getattr(self._bundle, "user_docs", None)
        return "textcnn.fit_user" if docs is user_docs else "textcnn.fit_item"

    def install(self):
        """Wrap every traced layer; the wrappers stay for the process's life."""
        def n_docs(a, k, r):
            return len(a[1] if len(a) > 1 else k["docs"])

        def fitted(a, k, r):
            opt = a[6] if len(a) > 6 else k.get("optimizer")
            return n_docs(a, k, r) * (opt or textcnn.OptimizerConfig()).epochs

        def file_size(a, k, r):
            return os.path.getsize(a[0] if a else k["path"])

        def doc_tokens(a, k, bundle):
            return int(bundle.user_doc_lens.sum()) + int(bundle.item_doc_lens.sum())

        w = self.wrap
        w(corpus, "take_first_n", "corpus.take_first_n", lambda a, k, r: len(r[0]))
        w(corpus, "build_bundle", "corpus.build_bundle", doc_tokens)
        w(evaluate, "split", "evaluate.split")
        w(serialize, "write_container", "serialize.write_container", file_size)
        w(serialize, "read_container", "serialize.read_container", file_size)
        w(factorize, "train", self._train_label)
        w(factorize, "update_user_factors", "factorize.update_user_factors")
        w(factorize, "update_item_factors", "factorize.update_item_factors")
        w(factorize, "spd_solve", "linalg.spd_solve")
        w(factorize, "weighted_gram", "linalg.weighted_gram")
        w(factorize, "total_loss", "factorize.total_loss")
        w(textcnn, "fit_to_targets", self._fit_label, fitted)
        w(textcnn, "mean_loss", "textcnn.mean_loss")
        w(textcnn, "forward_many", "textcnn.forward_many", n_docs)
        w(evaluate, "evaluate_model", "evaluate.evaluate_model", lambda a, k, r: r[1])
        for cmd in ("ingest", "train", "evaluate", "compare"):
            w(cli, f"cmd_{cmd}", f"cli.{cmd}")

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, work in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "work": work}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times and counts, keyed by the benchmark's metric names."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)      # inclusive seconds
        self_s = defaultdict(float)     # seconds not covered by child spans
        calls = defaultdict(int)
        work = defaultdict(float)
        for i, (name, start, end, parent, n) in enumerate(spans):
            parent_name = spans[parent][0] if parent >= 0 else None
            # take_first_n inside build_bundle only recounts stats; forward_many
            # inside mean_loss is an evaluation pass, not target encoding.
            if (name, parent_name) in (("corpus.take_first_n", "corpus.build_bundle"),
                                       ("textcnn.forward_many", "textcnn.mean_loss")):
                name += "@" + parent_name
            total[name] += end - start
            self_s[name] += end - start - child_time[i]
            calls[name] += 1
            work[name] += n or 0
        return {
            "corpus.parse_s": total["corpus.take_first_n"],
            "corpus.records": work["corpus.take_first_n"],
            "corpus.build_s": total["corpus.build_bundle"],
            "corpus.doc_tokens": work["corpus.build_bundle"],
            "evaluate.split_s": total["evaluate.split"],
            "serialize.write_s": total["serialize.write_container"],
            "serialize.write_bytes": work["serialize.write_container"],
            "serialize.read_s": total["serialize.read_container"],
            "serialize.read_bytes": work["serialize.read_container"],
            "factorize.user_step_s": self_s["factorize.update_user_factors"],
            "factorize.item_step_s": self_s["factorize.update_item_factors"],
            "factorize.outer_iters": calls["factorize.update_user_factors"],
            "linalg.solve_calls": calls["linalg.spd_solve"],
            "linalg.solve_s": total["linalg.spd_solve"],
            "linalg.gram_s": total["linalg.weighted_gram"],
            "factorize.loss_calls": calls["factorize.total_loss"],
            "factorize.loss_s": total["factorize.total_loss"],
            "textcnn.fit_user_s": self_s["textcnn.fit_user"],
            "textcnn.fit_item_s": self_s["textcnn.fit_item"],
            "textcnn.docs_fitted": work["textcnn.fit_user"] + work["textcnn.fit_item"],
            "textcnn.eval_pass_s": total["textcnn.mean_loss"],
            "textcnn.eval_pass_calls": calls["textcnn.mean_loss"],
            "textcnn.encode_s": total["textcnn.forward_many"],
            "textcnn.docs_encoded": work["textcnn.forward_many"],
            "evaluate.score_s": total["evaluate.evaluate_model"],
            "evaluate.pairs_scored": work["evaluate.evaluate_model"],
            "cli.ingest_s": total["cli.ingest"],
            "cli.train_s": total["cli.train"],
            "cli.evaluate_s": total["cli.evaluate"],
            "cli.compare_s": total["cli.compare"],
        }
