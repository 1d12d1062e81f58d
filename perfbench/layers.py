"""Which robustcl functions the benchmark wraps, and the per-layer metrics
read back from their spans.

Two target sets exist. The light set times only the boundaries the
end-to-end metrics need (optimizer steps, epochs, attack batches), a few
clock reads per step. The full set adds every public function of each
layer and is installed only in the traced run.
"""

from __future__ import annotations

import functools
import os

from robustcl import (analysis, attacks, data, evaluation, experiment, losses,
                      models, tensor, training)

from spans import END, NAME, PARENT, START, has_ancestor, totals

# every public primitive of the autodiff engine
TENSOR_OPS = ("add", "sub", "mul", "div", "scale", "matmul", "transpose",
              "reshape", "relu", "exp", "log", "tsum", "tmean", "max_reduce",
              "l2_normalize_rows", "concat_rows", "slice_rows", "conv2d_3x3",
              "maxpool2x2")
# the primitives every workload calls; the others stay in the trace file
REPORTED_TENSOR_OPS = ("add", "sub", "mul", "scale", "matmul", "transpose",
                       "reshape", "relu", "exp", "log", "tsum", "tmean",
                       "l2_normalize_rows", "concat_rows")
LOSS_FWD = ("losses.pretrain_loss", "losses.finetune_loss",
            "losses.combined_scheme_loss")


def _probe_pgd(tracer, rec, args, kwargs, out):
    batch, spec = args[1], args[2]
    ran = not (spec.epsilon == 0.0 or (spec.steps == 0 and not spec.random_start))
    tracer.count("attacks.pgd_steps", spec.steps if ran else 0)
    tracer.count("attacks.images", batch.x.shape[0])


def _probe_robust(tracer, rec, args, kwargs, out):
    tm = args[2].threat_model
    tracer.count(f"evaluation.tm{1 if tm == 'I' else 2}_s", rec[END] - rec[START])
    tracer.count("evaluation.images", args[1].n)


def _probe_evaluate(tracer, rec, args, kwargs, out):
    tracer.count("evaluation.tm2_classifier_queries", out.classifier_grad_queries_tm2)


def _probe_matmul(tracer, rec, args, kwargs, out):
    (m, k), n = args[0].shape, args[1].shape[1]
    tracer.count("tensor.matmul.flop", 2 * m * k * n)


def _probe_backward(tracer, rec, args, kwargs, out):
    tracer.count("tensor.tape_nodes", len(args[0].nodes))


def _probe_sim_rows(tracer, rec, args, kwargs, out):
    rows = args[0].shape[0]
    if rec[NAME] == "losses.nt_xent":
        rows *= 2  # the two views are stacked
    tracer.maximum("losses.sim_rows_max", rows)


def _probe_checkpoint(tracer, rec, args, kwargs, out):
    tracer.count("models.checkpoint_bytes", os.path.getsize(args[0]))


def _counted_batches(tracer):
    """Span each epoch's batch iterator and count the examples it yields."""
    def factory(fn):
        spanned = tracer.span("data.iter_batches")(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for xb, yb in spanned(*args, **kwargs):
                tracer.count("training.examples", len(yb))
                yield xb, yb
        return wrapper
    return factory


def light_targets(tracer):
    return [
        (data, "iter_batches", _counted_batches(tracer)),
        (training.Adam, "step", tracer.span("training.Adam.step")),
        (attacks, "pgd", tracer.span("attacks.pgd", _probe_pgd)),
        (evaluation, "robust_accuracy",
         tracer.span("evaluation.robust_accuracy", _probe_robust)),
    ]


def timing_targets(tracer):
    """The light set plus `tensor.backward`, for the untraced run: every
    PGD step and optimizer step then ends in a wrapped call, where the
    tracer's poll can sample the host speed (see `calibrate.Sampler`)."""
    return light_targets(tracer) + [
        (tensor, "backward", tracer.span("tensor.backward"))]


def full_targets(tracer):
    probes = {
        "tensor.matmul": _probe_matmul, "tensor.backward": _probe_backward,
        "losses.nt_xent": _probe_sim_rows, "losses.supcon": _probe_sim_rows,
        "models.load_checkpoint": _probe_checkpoint,
        "evaluation.evaluate": _probe_evaluate,
    }
    names = [(tensor, op) for op in TENSOR_OPS + ("backward",)] + [
        (models, "init_model"), (models, "encode"), (models, "project"),
        (models, "classify"), (models, "load_checkpoint"),
        (losses, "nt_xent"), (losses, "supcon"), (losses, "cross_entropy"),
        (losses, "pretrain_loss"), (losses, "finetune_loss"),
        (losses, "combined_scheme_loss"),
        (data, "make_views"), (data, "gen_bar_images"), (data, "split"),
        (training, "run_scenario"), (evaluation, "evaluate"),
        (analysis, "linear_cka"), (analysis, "cka_heatmap"),
        (analysis, "divergence_curve"), (analysis, "cross_model_cka"),
        (analysis, "upper_third_mean"),
        (experiment, "build_dataset"), (experiment, "build_splits"),
        (experiment, "train_cell"),
    ]
    targets = light_targets(tracer)
    for owner, attr in names:
        if hasattr(owner, attr):
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            targets.append((owner, attr, tracer.span(name, probes.get(name))))
    return targets


def optimizer_steps(spans):
    """Wall time of each optimizer step: from the end of the previous step,
    or the start of the epoch, to the end of `Adam.step`."""
    out, start = [], None
    for s in spans:
        if s[NAME] == "data.iter_batches":
            start = s[START]
        elif s[NAME] == "training.Adam.step":
            out.append(s[END] - start)
            start = s[END]
    return out


def attack_batches(spans):
    """Wall time of each evaluation attack batch (one PGD call)."""
    return [s[END] - s[START] for s in spans
            if s[NAME] == "attacks.pgd" and s[PARENT] >= 0
            and spans[s[PARENT]][NAME] == "evaluation.robust_accuracy"]


# metrics whose layer does not run on every workload: their time is
# reported as a share of the traced wall time (see README), because a time
# that reads 0.0 on every run of a workload is indistinguishable from a
# constant
SHARE_METRICS = (
    "attacks.pgd_s", "losses.supcon_s", "data.make_views_s",
    "training.views_s", "training.pgd_s", "training.loss_fwd_s",
    "training.backward_s", "training.adam_s", "training.other_s",
    "models.load_checkpoint_s", "evaluation.clean_s", "evaluation.tm1_s",
    "evaluation.tm2_s", "analysis.linear_cka_s", "analysis.divergence_curve_s",
    "analysis.cross_model_cka_s",
)
SETUP_METRICS = ("models.load_checkpoint_s",)


def layer_seconds(spans, counters, setup_spans, setup_counters):
    """Every per-layer metric of one traced unit, times in seconds."""
    tot = totals(spans)
    st = totals(setup_spans)

    def calls(name, t=tot):
        return t.get(name, (0, 0.0, 0.0))[0]

    def incl(name, t=tot):
        return t.get(name, (0, 0.0, 0.0))[1]

    def selft(name, t=tot):
        return t.get(name, (0, 0.0, 0.0))[2]

    pgd_steps = counters.get("attacks.pgd_steps", 0)
    encode_in_pgd = sum(1 for i, s in enumerate(spans)
                        if s[NAME] == "models.encode"
                        and has_ancestor(spans, i, "attacks.pgd"))
    step_walls = optimizer_steps(spans)
    backward_outside_pgd = sum(s[END] - s[START] for i, s in enumerate(spans)
                               if s[NAME] == "tensor.backward"
                               and not has_ancestor(spans, i, "attacks.pgd"))
    in_training = calls("training.Adam.step") > 0
    phases = {
        "training.views_s": incl("data.make_views") if in_training else 0.0,
        "training.pgd_s": incl("attacks.pgd") if in_training else 0.0,
        "training.loss_fwd_s": sum(incl(n) for n in LOSS_FWD),
        "training.backward_s": backward_outside_pgd if in_training else 0.0,
        "training.adam_s": incl("training.Adam.step"),
    }
    clean = incl("evaluation.evaluate") - incl("evaluation.robust_accuracy")
    backward_calls = calls("tensor.backward")
    m = {
        "attacks.pgd.calls": calls("attacks.pgd"),
        "attacks.pgd_s": incl("attacks.pgd"),
        "attacks.pgd_steps": pgd_steps,
        "attacks.images": counters.get("attacks.images", 0),
        "attacks.encode_per_step": encode_in_pgd / pgd_steps if pgd_steps else 0.0,
        "losses.nt_xent.calls": calls("losses.nt_xent"),
        "losses.nt_xent_s": incl("losses.nt_xent"),
        "losses.supcon.calls": calls("losses.supcon"),
        "losses.supcon_s": incl("losses.supcon"),
        "losses.cross_entropy.calls": calls("losses.cross_entropy"),
        "losses.cross_entropy_s": incl("losses.cross_entropy"),
        "losses.sim_rows_max": counters.get("losses.sim_rows_max", 0),
    }
    for op in TENSOR_OPS:
        m[f"tensor.{op}.calls"] = calls(f"tensor.{op}")
        m[f"tensor.{op}.fwd_s"] = selft(f"tensor.{op}")
    m.update({
        "tensor.backward.calls": backward_calls,
        "tensor.backward_s": incl("tensor.backward"),
        "tensor.tape_nodes_per_backward":
            counters.get("tensor.tape_nodes", 0) / backward_calls if backward_calls else 0.0,
        "tensor.matmul.fwd_gflop": counters.get("tensor.matmul.flop", 0) / 1e9,
        "data.make_views.calls": calls("data.make_views"),
        "data.make_views_s": incl("data.make_views"),
        "data.gen_bar_images_s": incl("data.gen_bar_images", st),
        "training.steps": len(step_walls),
        **phases,
        "training.other_s": max(0.0, sum(step_walls) - sum(phases.values())),
        "models.encode.calls": calls("models.encode"),
        "models.encode_s": incl("models.encode"),
        "models.classify.calls": calls("models.classify"),
        "models.load_checkpoint_s": incl("models.load_checkpoint", st),
        "models.checkpoint_bytes": setup_counters.get("models.checkpoint_bytes", 0),
        "evaluation.clean_s": clean,
        "evaluation.tm1_s": counters.get("evaluation.tm1_s", 0.0),
        "evaluation.tm2_s": counters.get("evaluation.tm2_s", 0.0),
        "evaluation.tm2_classifier_queries":
            counters.get("evaluation.tm2_classifier_queries", 0),
        "analysis.linear_cka.calls": calls("analysis.linear_cka"),
        "analysis.linear_cka_s": incl("analysis.linear_cka"),
        "analysis.divergence_curve_s": incl("analysis.divergence_curve"),
        "analysis.cross_model_cka_s": incl("analysis.cross_model_cka"),
        "experiment.build_dataset_s": incl("experiment.build_dataset", st),
        "experiment.build_splits_s": incl("experiment.build_splits", st),
    })
    return m


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_gflop"):
        return "computed-GFLOP"
    if name.endswith(("_per_step", "_per_backward", "_ratio")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def reported(seconds, unit_wall, setup_wall):
    """The per-layer metrics printed for the benchmark's result: times of
    layers that run on every workload in seconds, the rest as shares."""
    skipped = {f"tensor.{op}.{kind}" for op in TENSOR_OPS
               if op not in REPORTED_TENSOR_OPS for kind in ("calls", "fwd_s")}
    out = {}
    for name, value in seconds.items():
        if name in skipped:
            continue
        if name in SHARE_METRICS:
            base = setup_wall if name in SETUP_METRICS else unit_wall
            name, value = name[:-2] + "_pct", 100.0 * value / base
        out[name] = value
    return out
