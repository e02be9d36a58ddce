"""Checks of each workload's outputs.

Every check returns a list of error strings, empty when the output
passes. Expected values come from the benchmark's own computations
(``refnet``) or from properties the method must have, never from a
stored copy of earlier output. ``selftest.py`` shows that each check
rejects a deliberately corrupted output.
"""

import math

import numpy as np

PROB_TOL = 1e-8  # report probabilities (printed %.10g) against the independent forward
SUM_TOL = 1e-8  # probability rows summing to one, after %.10g rounding
F32_EPS = float(np.finfo(np.float32).eps)


def sections(text):
    """Split a report into {section name: lines} at its '# section' markers."""
    out, current = {}, None
    for line in text.splitlines():
        if line.startswith("# section "):
            current = line[len("# section ") :]
            out[current] = []
        elif current is not None:
            out[current].append(line)
    return out


def parse_table(lines):
    header = lines[0].split("\t")
    return header, [line.split("\t") for line in lines[1:] if line]


def held_out_records(groups):
    """Fold 0 of a record-holdout split: the first record of each group, in
    lexicographic order."""
    by_group = {}
    for record, group in groups.items():
        by_group.setdefault(group, []).append(record)
    return {min(records) for records in by_group.values()}


def _recount(true, pred, vocab):
    index = {label: i for i, label in enumerate(vocab)}
    counts = np.zeros((len(vocab), len(vocab)), dtype=np.int64)
    for t, p in zip(true, pred):
        counts[index[t], index[p]] += 1
    return counts


def textbook_f1(counts):
    """Per-class 2PR/(P+R), zero where P + R = 0, and its unweighted mean."""
    f1 = []
    for k in range(counts.shape[0]):
        tp = counts[k, k]
        predicted, actual = counts[:, k].sum(), counts[k, :].sum()
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return f1, sum(f1) / len(f1)


# ---------------------------------------------------------------------------
# sweep


def check_split(data, train, val, groups):
    errors = []
    held = held_out_records(groups)
    if set(val.record_ids) != held:
        errors.append(f"split: validation records {sorted(set(val.record_ids))} != {sorted(held)}")
    shared = set(train.record_ids) & held
    if shared:
        errors.append(f"split: held-out records {sorted(shared)} also in training")
    if len(train.record_ids) + len(val.record_ids) != len(data.record_ids):
        errors.append("split: train and validation do not add up to the input")
    return errors


def check_sweep_table(text, data, groups, alphas):
    """Rows per alpha, macro-F1 in [0, 1], recall x validation count integral."""
    errors = []
    header, rows = parse_table(text.splitlines())
    vocab = data.vocabulary
    if header != ["alpha", "fold", "macro_f1"] + [f"recall_{c}" for c in vocab]:
        return [f"sweep: unexpected columns {header}"]
    if [float(r[0]) for r in rows] != list(alphas) or any(r[1] != "0" for r in rows):
        errors.append(f"sweep: rows {[r[:2] for r in rows]} do not cover alphas {alphas}, fold 0")
    held = held_out_records(groups)
    names = data.label_names()
    val_counts = [
        sum(1 for r, l in zip(data.record_ids, names) if r in held and l == c) for c in vocab
    ]
    for row in rows:
        macro = float(row[2])
        if not 0.0 <= macro <= 1.0:
            errors.append(f"sweep: macro_f1 {macro} outside [0, 1]")
        for label, count, cell in zip(vocab, val_counts, row[3:]):
            hits = float(cell) * count
            if abs(hits - round(hits)) > 1e-6 or not 0.0 <= float(cell) <= 1.0:
                errors.append(f"sweep: recall_{label}={cell} is not k/{count}")
    return errors


def check_loss_trace(stdout, steps):
    losses = {}
    for line in stdout.splitlines():
        if line.startswith("step "):
            step, loss = line.split("\t")
            losses[int(step.split()[1])] = float(loss.split()[1])
    errors = []
    if steps - 1 not in losses:
        errors.append(f"train: no loss printed for the last step {steps - 1}")
    bad = {s: v for s, v in losses.items() if not math.isfinite(v)}
    if bad:
        errors.append(f"train: non-finite losses {bad}")
    return errors


def check_gradients(loss_and_gradients, descriptor, weights, x, labels, rng, tries=6):
    """Analytic gradients against central finite differences (dropout off).

    For every tensor, coordinates with a non-zero gradient (any, if there
    are none) are drawn from ``rng`` until one is away from a ReLU or
    max-pool kink, i.e. its forward and backward one-sided differences
    agree; at most ``tries`` are drawn. The step is 1e-7 relative; the
    tolerance is 1e-4 relative plus 1e-7 absolute, well above the rounding
    error of a float64 loss difference over 2h.
    """
    loss, grads = loss_and_gradients(descriptor, weights, x, labels, training=False)
    errors = []
    for key in sorted(weights):
        w, g = weights[key], grads.get(key, np.zeros_like(weights[key]))
        pool = np.flatnonzero(g) if np.any(g) else np.arange(w.size)
        for flat in rng.choice(pool, size=min(tries, pool.size), replace=False):
            original = w.flat[flat]
            h = 1e-7 * max(1.0, abs(original))
            w.flat[flat] = original + h
            plus, _ = loss_and_gradients(descriptor, weights, x, labels, training=False)
            w.flat[flat] = original - h
            minus, _ = loss_and_gradients(descriptor, weights, x, labels, training=False)
            w.flat[flat] = original
            forward, backward = (plus - loss) / h, (loss - minus) / h
            if abs(forward - backward) > 1e-3 * max(abs(forward), abs(backward)) + 1e-6:
                continue  # a kink lies within h: the difference quotient means nothing
            central, analytic = (plus - minus) / (2 * h), g.flat[flat]
            if abs(analytic - central) > 1e-4 * max(abs(analytic), abs(central)) + 1e-7:
                errors.append(
                    f"gradient {key}[{flat}]: analytic {analytic:.6e}, central {central:.6e}"
                )
            break
        else:
            errors.append(f"gradient {key}: no drawn coordinate is clear of a kink")
    return errors


# ---------------------------------------------------------------------------
# explain


def parse_report(text):
    """(prediction rows, confusion counts, metrics {name: value}) of an evaluate report."""
    parts = sections(text)
    _, predictions = parse_table(parts["predictions"])
    _, confusion = parse_table(parts["confusion_counts"])
    counts = np.array([[int(v) for v in row[1:]] for row in confusion], dtype=np.int64)
    metrics = {}
    _, rows = parse_table(parts["metrics"])
    for row in rows:
        if len(row) == 3:
            metrics[f"recall_{row[0]}"] = float(row[1])
            metrics[f"f1_{row[0]}"] = float(row[2])
        else:
            metrics[row[0]] = float(row[1])
    return predictions, counts, metrics


def check_report(text, data, probs):
    """Predictions against the independent forward; blocks against a recount."""
    predictions, counts, metrics = parse_report(text)
    vocab = data.vocabulary
    names = data.label_names()
    if len(predictions) != len(names):
        return [f"evaluate: {len(predictions)} prediction rows for {len(names)} epochs"]
    errors = []
    true, pred = [], []
    for i, row in enumerate(predictions):
        p = np.array([float(v) for v in row[4:]])
        if row[:3] != [str(i), data.record_ids[i], names[i]]:
            errors.append(f"evaluate: row {i} is {row[:3]}, input says {names[i]}")
        if np.max(np.abs(p - probs[i])) > PROB_TOL:
            errors.append(f"evaluate: row {i} probabilities differ from the independent forward")
        if row[3] != vocab[int(np.argmax(p))]:
            errors.append(f"evaluate: row {i} predicts {row[3]}, argmax is {vocab[np.argmax(p)]}")
        true.append(row[2])
        pred.append(row[3])
    recount = _recount(true, pred, vocab)
    if not np.array_equal(counts, recount):
        errors.append("evaluate: confusion block differs from a recount of the predictions")
    f1, macro = textbook_f1(recount)
    if abs(metrics["macro_f1"] - macro) > 1e-9:
        errors.append(f"evaluate: macro_f1 {metrics['macro_f1']} != textbook {macro}")
    for label, value in zip(vocab, f1):
        if abs(metrics[f"f1_{label}"] - value) > 1e-9:
            errors.append(f"evaluate: f1_{label} {metrics[f'f1_{label}']} != textbook {value}")
    return errors


def check_condconf(text, report_text, vocab):
    """Row sums equal each class's count of correct predictions."""
    predictions, _, _ = parse_report(report_text)
    correct = [sum(1 for r in predictions if r[2] == r[3] == label) for label in vocab]
    if text is None:
        return [] if sum(correct) == 0 else ["condconf: no output despite correct predictions"]
    _, rows = parse_table(sections(text)["conditional_confusion_ft"])
    sums = [sum(int(v) for v in row[1:]) for row in rows]
    if sums != correct:
        return [f"condconf: row sums {sums} != correct predictions per class {correct}"]
    return []


def check_saliency(text, report_text, epoch_index, window_s, step_s, epoch_s):
    """Position rows, rows summing to one, baseline equal to the report row."""
    _, rows = parse_table(text.splitlines())
    expected = math.floor((epoch_s - window_s) / step_s) + 1
    errors = []
    if rows[0][0] != "baseline" or len(rows) - 1 != expected:
        errors.append(f"saliency: {len(rows) - 1} position rows, expected {expected}")
    for k, row in enumerate(rows[1:]):
        if abs(float(row[0]) - k * step_s) > 1e-9:
            errors.append(f"saliency: position {row[0]} is not {k} * {step_s}")
        if abs(sum(float(v) for v in row[1:]) - 1.0) > SUM_TOL:
            errors.append(f"saliency: row at {row[0]} s does not sum to 1")
    predictions, _, _ = parse_report(report_text)
    baseline = np.array([float(v) for v in rows[0][1:]])
    reported = np.array([float(v) for v in predictions[epoch_index][4:]])
    if baseline.shape != reported.shape or np.max(np.abs(baseline - reported)) > PROB_TOL:
        errors.append("saliency: baseline row differs from the report row of the epoch")
    return errors


# ---------------------------------------------------------------------------
# augment


def check_balance(data, balanced, beta):
    """Class counts, untouched originals, IAAFT channels as permutations."""
    errors = []
    vocab = data.vocabulary
    names = data.label_names()
    counts = {c: names.count(c) for c in vocab}
    top = max(counts.values())
    out_names = balanced.label_names()
    for c in vocab:
        want = counts[c] + round(beta * (top - counts[c]))  # Python rounds half to even
        if out_names.count(c) != want:
            errors.append(f"balance: {out_names.count(c)} {c} epochs, expected {want}")
    originals = {}
    for i in range(len(names)):
        key = (data.samples[i].tobytes(), names[i], data.record_ids[i])
        originals[key] = originals.get(key, 0) + 1
    # sorted values of each input channel -> the (label, record) pairs owning them
    sorted_owner = {}
    for i in range(len(names)):
        for c in range(data.samples.shape[1]):
            key = (c, np.sort(data.samples[i, c]).tobytes())
            sorted_owner.setdefault(key, set()).add((names[i], data.record_ids[i]))
    for i, (label, record) in enumerate(zip(out_names, balanced.record_ids)):
        key = (balanced.samples[i].tobytes(), label, record)
        if originals.get(key, 0) > 0:
            originals[key] -= 1
            continue
        for c in range(balanced.samples.shape[1]):
            owners = sorted_owner.get((c, np.sort(balanced.samples[i, c]).tobytes()), set())
            if (label, record) not in owners:
                errors.append(
                    f"balance: epoch {i} channel {c} is no permutation of channel {c} "
                    f"of an input {label} epoch of {record}"
                )
    missing = sum(originals.values())
    if missing:
        errors.append(f"balance: {missing} input epochs are missing or changed")
    return errors


def check_ft_surrogates(data, surrogates):
    """Amplitude spectrum and mean kept to float32 precision; labels and records kept."""
    errors = []
    if surrogates.label_names() != data.label_names():
        errors.append("surrogate: labels changed")
    if surrogates.record_ids != data.record_ids:
        errors.append("surrogate: record ids changed")
    if surrogates.samples.shape != data.samples.shape:
        return errors + [f"surrogate: shape {surrogates.samples.shape} != {data.samples.shape}"]
    x = data.samples.astype(np.float64)
    y = surrogates.samples.astype(np.float64)
    # storing y as float32 moves each sample by at most eps/2 relative, so a
    # spectral bin by at most eps/2 * sum|y|; float64 rounding is far below that
    bound = F32_EPS * np.abs(y).sum(axis=-1)
    spectrum_error = np.abs(np.abs(np.fft.rfft(y)) - np.abs(np.fft.rfft(x))).max(axis=-1)
    for i, c in zip(*np.nonzero(spectrum_error > bound)):
        errors.append(f"surrogate: epoch {i} channel {c} amplitude spectrum changed")
    mean_error = np.abs(y.mean(axis=-1) - x.mean(axis=-1))
    for i, c in zip(*np.nonzero(mean_error > bound / y.shape[-1])):
        errors.append(f"surrogate: epoch {i} channel {c} mean changed")
    if np.array_equal(x, y):
        errors.append("surrogate: output equals the input")
    return errors
