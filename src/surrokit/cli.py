"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 numerical failure. When --seed is absent the SURROKIT_SEED environment
variable supplies the default (its use is echoed to stderr); otherwise
the seed is 0. A negative seed is a usage error. Every output file is
written atomically.
"""

import argparse
import ctypes
import os
import sys
from collections import Counter
from dataclasses import asdict, replace

from . import dataio
from .balance import BalanceConfig, Dataset, augment, record_holdout_split, upsample
from .classifiers import NetworkClassifier
from .errors import InvalidInputError, NumericalError
from .evaluation import CONDITIONAL_KINDS, alpha_sweep, conditional_confusion, evaluate
from .network import ARCHITECTURES, DROPOUT_CONV, DROPOUT_DENSE, count_parameters, infer_shapes
from .saliency import SaliencySpec, surrogate_saliency, zero_out_saliency
from .seeding import NS_EPOCH_FILE, derive_seed
from .surrogates import (
    IAAFT_STOP_REASONS,
    KIND_IAAFT,
    SURROGATE_KINDS,
    SurrogateConfig,
    epoch_surrogate_with_reports,
)
from .synthetic import bundled_spec, generate_synthetic, spec_from_json
from .training import TrainConfig, train_network


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _non_negative_seed(seed: int, source: str) -> int:
    if seed < 0:
        raise _UsageError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return _non_negative_seed(args.seed, "--seed")
    env = os.environ.get("SURROKIT_SEED")
    if env is not None:
        try:
            seed = _non_negative_seed(int(env), "SURROKIT_SEED")
        except ValueError:
            raise _UsageError(f"SURROKIT_SEED must be an integer, got {env!r}")
        print(f"surrokit: using seed {seed} from SURROKIT_SEED", file=sys.stderr)
        return seed
    return 0


def _load_groups(path) -> dict:
    groups = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InvalidInputError(
                    f"{path}:{line_no}: expected 'record_id group_id', got {line!r}"
                )
            groups[parts[0]] = parts[1]
    return groups


def _classifier_from_checkpoint(weights_path, dataset: Dataset) -> NetworkClassifier:
    descriptor, weights, _ = dataio.load_weights(weights_path)
    if descriptor.n_classes() != len(dataset.label_vocabulary):
        raise InvalidInputError(
            f"checkpoint has {descriptor.n_classes()} outputs but the dataset "
            f"vocabulary holds {len(dataset.label_vocabulary)} classes"
        )
    return NetworkClassifier(descriptor, weights, dataset.label_vocabulary)


def _write_or_print(out, text, what) -> None:
    """Write ``text`` to ``out`` and say so, or print it when ``out`` is unset."""
    if out:
        dataio.atomic_write_text(out, text)
        print(f"wrote {what} to {out}")
    else:
        print(text, end="")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args):
    if args.spec_file == "bundled":
        spec = bundled_spec()
    else:
        with open(args.spec_file, "r", encoding="utf-8") as handle:
            spec = spec_from_json(handle.read())
    dataset = generate_synthetic(spec, args.n, args.seed)
    dataio.save_dataset(args.out, dataset)
    counts = dataset.class_counts()
    print(f"wrote {len(dataset)} epochs to {args.out}")
    for label in dataset.label_vocabulary:
        print(f"  {label}\t{counts[label]}")
    return 0


def _cmd_surrogate(args):
    dataset = dataio.load_dataset(args.infile)
    config = SurrogateConfig(
        kind=args.kind, iaaft_max_iters=args.iters, iaaft_tolerance=args.tol
    )
    seeds = [derive_seed(args.seed, NS_EPOCH_FILE, i) for i in range(len(dataset))]
    x, reports = epoch_surrogate_with_reports(dataset.x, seeds, config)
    out = replace(dataset, x=x)
    dataio.save_dataset(args.out, out)  # before any output, so a failed write prints nothing else
    if args.kind == KIND_IAAFT:
        n_channels = len(dataset.channel_roles)
        for i in range(len(dataset)):
            epoch_reports = reports[i * n_channels : (i + 1) * n_channels]
            iters = ",".join(str(r.iterations) for r in epoch_reports)
            discs = ",".join(f"{r.final_discrepancy:.3e}" for r in epoch_reports)
            print(f"epoch {i}: iterations [{iters}] discrepancy [{discs}]")
    print(f"wrote {len(out)} {args.kind} surrogate epochs to {args.out}")
    return 0


def _cmd_balance(args):
    dataset = dataio.load_dataset(args.infile)
    config = BalanceConfig(
        beta=args.beta, alpha=args.alpha, seed=args.seed, surrogate=SurrogateConfig(kind=args.kind)
    )
    before = dataset.class_counts()
    upsampled, flags = upsample(dataset, config)
    reports = []
    augmented = augment(upsampled, flags, config, log=reports.extend)
    dataio.save_dataset(args.out, augmented)  # before any output, as in _cmd_surrogate
    if args.kind == KIND_IAAFT:
        # diagnostics go to stderr so that stdout and the file stay reproducible
        reasons = Counter(r.reason for r in reports)
        counts = ", ".join(f"{reason} {reasons[reason]}" for reason in IAAFT_STOP_REASONS)
        iterations = sum(r.iterations for r in reports)
        print(
            f"iaaft: {len(reports)} channels replaced, {iterations} iterations; "
            f"stop reasons: {counts}",
            file=sys.stderr,
        )
    after = augmented.class_counts()
    print("class\tbefore\tafter")
    for label in dataset.label_vocabulary:
        print(f"{label}\t{before[label]}\t{after[label]}")
    print(f"wrote {len(augmented)} epochs to {args.out}")
    return 0


def _cmd_split(args):
    dataset = dataio.load_dataset(args.infile)
    groups = _load_groups(args.groups_file)
    train, validation = record_holdout_split(dataset, args.fold, args.folds, groups)
    dataio.save_dataset(args.out_train, train)
    dataio.save_dataset(args.out_val, validation)
    print(
        f"fold {args.fold}/{args.folds}: {len(train)} train epochs "
        f"({len(set(train.record_ids))} records), {len(validation)} validation epochs "
        f"({len(set(validation.record_ids))} records)"
    )
    return 0


def _cmd_train(args):
    dataset = dataio.load_dataset(args.infile)
    config = TrainConfig(
        learning_rate=args.lr, batch_size=args.batch, steps=args.steps, seed=args.seed
    )
    arch_config = {
        "n_classes": len(dataset.label_vocabulary),
        "input_len": dataset.n_samples,
        "dropout_conv": DROPOUT_CONV,
        "dropout_dense": DROPOUT_DENSE,
    }
    descriptor = ARCHITECTURES[args.arch](**arch_config)
    every = max(1, args.steps // 20)

    def log(step, loss):
        if step % every == 0 or step == args.steps - 1:
            print(f"step {step}\tloss {loss:.6f}")

    result = train_network(descriptor, dataset, config, log=log)
    dataio.save_weights(
        args.out_weights,
        descriptor,
        result.weights,
        arch_config=arch_config,
        train_config={k: v for k, v in asdict(config).items() if k != "seed"},
        seed=args.seed,
    )
    print(f"wrote weights to {args.out_weights}")
    return 0


def _cmd_evaluate(args):
    dataset = dataio.load_dataset(args.infile)
    classifier = _classifier_from_checkpoint(args.weights, dataset)
    result = evaluate(classifier, dataset)
    probs = result.probabilities
    pred_idx = probs.argmax(axis=1)
    vocab = dataset.label_vocabulary

    columns = ["epoch_index", "record_id", "true", "pred"] + [f"p_{c}" for c in vocab]
    rows = [
        [i, dataset.record_ids[i], vocab[dataset.labels[i]], vocab[pred_idx[i]], *probs[i]]
        for i in range(len(dataset))
    ]
    metric_rows = [
        *zip(vocab, result.per_class_recall, result.per_class_f1),
        ("macro_f1", result.macro_f1),
        ("weighted_f1", result.weighted_f1),
    ]
    report = (
        "# section predictions\n" + dataio.table_text(columns, rows)
        + dataio.confusion_text(result.confusion)
        + "# section metrics\n" + dataio.table_text(["class", "recall", "f1"], metric_rows)
    )
    if args.out:
        dataio.atomic_write_text(args.out, report)
        print(f"wrote report to {args.out}")
    print(f"macro F1: {result.macro_f1:.4f}")
    for i, label in enumerate(vocab):
        print(f"  recall {label}\t{result.per_class_recall[i]:.4f}")
    return 0


def _cmd_condconf(args):
    dataset = dataio.load_dataset(args.infile)
    classifier = _classifier_from_checkpoint(args.weights, dataset)
    confusion = conditional_confusion(classifier, dataset, args.kind, args.seed)
    if confusion is None:
        print("no correctly predicted epochs; nothing to condition on")
        return 0
    text = dataio.confusion_text(confusion, title=f"conditional_confusion_{args.kind}")
    _write_or_print(args.out, text, "conditional confusion")
    print(f"off-diagonal mass: {confusion.off_diagonal_mass():.4f}")
    return 0


def _cmd_sweep(args):
    dataset = dataio.load_dataset(args.infile)
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a != ""]
    except ValueError:
        raise _UsageError(f"--alphas must be a comma-separated float list, got {args.alphas!r}")
    if not alphas:
        raise _UsageError("--alphas is empty")
    if args.groups_file:
        groups = _load_groups(args.groups_file)
    else:
        groups = {rid: "all" for rid in set(dataset.record_ids)}
    config = TrainConfig(batch_size=args.batch, steps=args.steps, learning_rate=args.lr)
    rows = alpha_sweep(dataset, groups, alphas, args.beta, args.folds, config, args.seed)
    columns = ["alpha", "fold", "macro_f1"] + [f"recall_{c}" for c in dataset.label_vocabulary]
    table_rows = [
        [row.alpha, row.fold, row.macro_f1] + list(row.per_class_recall) for row in rows
    ]
    _write_or_print(args.out, dataio.table_text(columns, table_rows), f"{len(rows)} sweep rows")
    return 0


def _cmd_saliency(args):
    dataset = dataio.load_dataset(args.infile)
    if not 0 <= args.epoch_index < len(dataset):
        raise InvalidInputError(
            f"epoch index {args.epoch_index} outside dataset of {len(dataset)} epochs"
        )
    epoch = dataset.take([args.epoch_index])
    classifier = _classifier_from_checkpoint(args.weights, dataset)
    channels = tuple(c for c in args.channels.split(",") if c)
    spec = SaliencySpec(
        window_len_s=args.window,
        step_s=args.step,
        crossfade_s=args.crossfade,
        n_replacements=args.reps,
        target_channels=channels,
        seed=args.seed,
    )
    if args.method == "surrogate":
        saliency_map = surrogate_saliency(classifier, epoch, spec)
    else:
        saliency_map = zero_out_saliency(classifier, epoch, spec)
    what = f"saliency map ({len(saliency_map.positions_s)} positions)"
    _write_or_print(args.out, dataio.saliency_text(saliency_map), what)
    return 0


def _cmd_shapes(args):
    descriptor = ARCHITECTURES[args.arch]()
    shapes = infer_shapes(descriptor)
    counts = count_parameters(descriptor)

    def fmt(shape):
        return "x".join(str(s) for s in shape)

    print(f"architecture: {descriptor.name} (input {descriptor.input_len})")
    print("channel pipe:")
    for name, shape in shapes.channel:
        print(f"  {name}\t{fmt(shape)}")
    print(f"joined pipe (input {fmt(shapes.joined_input)}):")
    for name, shape in shapes.joined:
        print(f"  {name}\t{fmt(shape)}")
    print(f"channel pipe: {counts.channel_pipe:,} trainable parameters")
    print(f"joined pipe: {counts.joined_pipe:,} trainable parameters")
    print(
        f"total: {counts.total:,} trainable parameters "
        f"({counts.channel_groups} channel parameter groups)"
    )
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="surrokit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("spec_file", help="generator spec JSON, or 'bundled'")
    p.add_argument("out")
    p.add_argument("--n", type=int, default=600)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("surrogate", help="per-epoch surrogates of a dataset")
    p.add_argument("infile")
    p.add_argument("out")
    p.add_argument("--kind", choices=SURROGATE_KINDS, default=SurrogateConfig.kind)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--iters", type=int, default=SurrogateConfig.iaaft_max_iters)
    p.add_argument("--tol", type=float, default=SurrogateConfig.iaaft_tolerance)
    p.set_defaults(func=_cmd_surrogate)

    p = sub.add_parser("balance", help="up-sample and augment a dataset")
    p.add_argument("infile")
    p.add_argument("out")
    p.add_argument("--alpha", type=float, default=BalanceConfig.alpha)
    p.add_argument("--beta", type=float, default=BalanceConfig.beta)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--kind", choices=SURROGATE_KINDS, default=SurrogateConfig.kind)
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("split", help="record-holdout train/validation split")
    p.add_argument("infile")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--groups-file", required=True)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-val", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("infile")
    p.add_argument("out_weights")
    p.add_argument("--steps", type=int, default=TrainConfig.steps)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--arch", choices=sorted(ARCHITECTURES), default="reference")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="confusion matrix, recall, macro F1")
    p.add_argument("infile")
    p.add_argument("weights")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("condconf", help="conditional confusion on surrogates")
    p.add_argument("infile")
    p.add_argument("weights")
    p.add_argument("--kind", choices=CONDITIONAL_KINDS, default=SurrogateConfig.kind)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_condconf)

    p = sub.add_parser("sweep", help="alpha sweep: split, balance, train, evaluate")
    p.add_argument("infile")
    p.add_argument("--alphas", default="0,0.2,0.4,0.6,0.8,1")
    p.add_argument("--beta", type=float, default=0.9)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--groups-file", default=None)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("saliency", help="moving-window saliency map for one epoch")
    p.add_argument("infile")
    p.add_argument("weights")
    p.add_argument("--epoch-index", type=int, default=0)
    p.add_argument("--channels", default=",".join(SaliencySpec.target_channels))
    p.add_argument("--window", type=float, default=SaliencySpec.window_len_s)
    p.add_argument("--step", type=float, default=SaliencySpec.step_s)
    p.add_argument("--crossfade", type=float, default=SaliencySpec.crossfade_s)
    p.add_argument("--reps", type=int, default=SaliencySpec.n_replacements)
    p.add_argument("--method", choices=("surrogate", "zero"), default="surrogate")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_saliency)

    p = sub.add_parser("shapes", help="print layer shapes and parameter counts")
    p.add_argument("--arch", choices=sorted(ARCHITECTURES), default="full")
    p.set_defaults(func=_cmd_shapes)

    return parser


# glibc's mallopt parameter for the number of malloc arenas
M_ARENA_MAX = -8


def _cap_malloc_arenas():
    """Keep the process to one glibc malloc arena.

    glibc gives each thread that allocates concurrently an arena of its
    own, and an arena keeps freed memory for reuse, so the worker threads
    of ``parallel`` (the network's channel-group pipes and the chunks of
    a surrogate block) would grow the resident set by what each of them
    ever held. One shared arena keeps the peak near the memory actually
    in use. The cap holds for the whole process and for every
    thread, ours or not, that allocates after the call. Where the C
    library has no ``mallopt`` nothing happens.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_ARENA_MAX, 1)


def main(argv=None) -> int:
    _cap_malloc_arenas()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "seed"):
            args.seed = _resolve_seed(args)
        return args.func(args)
    except _UsageError as exc:
        print(f"surrokit: usage error: {exc}", file=sys.stderr)
        return 1
    except (InvalidInputError, OSError, UnicodeDecodeError) as exc:
        # a spec or groups file that is not UTF-8 is malformed input too
        print(f"surrokit: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"surrokit: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
