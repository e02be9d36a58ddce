"""Fuzzing of every file the CLI reads, with derandomized Hypothesis cases.

Each case damages a valid file: a truncation or a header or payload
byte flip of a dataset file or a checkpoint, type swaps and deleted
fields in a generator spec, or a mangled groups file. The only allowed
outcomes are a value that loads, or ``InvalidInputError``: through
``cli.main`` that is exit 0, or exit 2 with one line on stderr and no
output file. A checkpoint carries a payload checksum, so a flip of its
payload must exit 2. Sizes in the spec are never scaled up, so no case
allocates more than a valid file would.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surrokit.cli import main
from surrokit.dataio import load_dataset, load_weights, save_dataset
from surrokit.errors import InvalidInputError
from surrokit.synthetic import (
    ClassSpec,
    SyntheticSpec,
    TransientSpec,
    ar_resonance_coeffs,
    spec_to_json,
)

SPEC = SyntheticSpec(
    classes=(
        ClassSpec("low", 0.5, ar_resonance_coeffs(2.0, 0.9, 32.0), noise_scale=10.0),
        ClassSpec(
            "high",
            0.5,
            ar_resonance_coeffs(11.0, 0.9, 32.0),
            noise_scale=10.0,
            transient=TransientSpec(amplitude=80.0, width_s=0.5, freq_hz=11.0),
        ),
    ),
    epoch_len_s=10.0,  # 320 samples, the shortest the reference network takes
    n_records=4,
)
# replacement values for type swaps; none of them is a large size
SWAPS = ("x", 1, 2.5, True, None, [], {}, ["x"], [1.0], {"a": 1})
DELETE = object()


def run_cli(argv, outputs):
    """Exit code of ``main(argv)``; on exit 2 checks the one stderr line and
    that none of ``outputs`` was written."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 2), (code, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("surrokit: ") and err.getvalue().count("\n") == 1
        assert not any(path.exists() for path in outputs), err.getvalue()
    return code


def remove(*paths):
    for path in paths:
        path.unlink(missing_ok=True)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "spec.json").write_text(spec_to_json(SPEC))
    assert main(["synth", str(d / "spec.json"), str(d / "data.sdat"), "--n", "6"]) == 0
    assert main(["train", str(d / "data.sdat"), str(d / "w.swt"), "--steps", "1",
                 "--batch", "2"]) == 0
    records = sorted(set(load_dataset(d / "data.sdat").record_ids))
    (d / "groups.txt").write_text("".join(f"{r} g{i % 2}\n" for i, r in enumerate(records)))
    return d


def header_length(blob):
    return blob.index(b"\n") + 1


@st.composite
def damaged(draw, blob):
    """``blob`` truncated, or with one byte of its header or payload flipped."""
    split = header_length(blob)
    kind = draw(st.sampled_from(("truncate", "header", "payload")))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    position = draw(st.integers(0, split - 1) if kind == "header" else
                    st.integers(split, len(blob) - 1))
    out = bytearray(blob)
    out[position] ^= draw(st.integers(1, 255))
    return bytes(out)


class TestDatasetFile:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_dataset_loads_or_exits_2(self, files, data):
        blob = data.draw(damaged((files / "data.sdat").read_bytes()))
        path, out = files / "bad.sdat", files / "out.sdat"
        path.write_bytes(blob)
        try:
            dataset = load_dataset(path)
        except InvalidInputError:
            dataset = None
        if dataset is not None:
            # whatever loads can be written and read back unchanged
            save_dataset(out, dataset)
            assert load_dataset(out).x.tobytes() == dataset.x.tobytes()
            remove(out)
        code = run_cli(["balance", path, out], [out])
        remove(out)
        assert code == (2 if dataset is None else 0)


class TestCheckpoint:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_checkpoint_loads_or_exits_2(self, files, data):
        original = (files / "w.swt").read_bytes()
        blob = data.draw(damaged(original))
        split = header_length(original)
        # the header's payload_sha256 catches every payload byte flip
        payload_flip = len(blob) == len(original) and blob[:split] == original[:split]
        path, report = files / "bad.swt", files / "report.tsv"
        path.write_bytes(blob)
        try:
            load_weights(path)
            loaded = True
        except InvalidInputError:
            loaded = False
        code = run_cli(["evaluate", files / "data.sdat", path, "--out", report], [report])
        remove(report)
        assert code == (0 if loaded else 2)
        assert code == 2 or not payload_flip


def field_paths(node, prefix=()):
    """Every key or index path in a JSON tree, parents before children."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in children:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


SPEC_TREE = json.loads(spec_to_json(SPEC))
SPEC_PATHS = list(field_paths(SPEC_TREE))


def mutated_spec(mutations):
    tree = json.loads(json.dumps(SPEC_TREE))
    for path, value in mutations:
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return json.dumps(tree)


@st.composite
def spec_mutations(draw):
    """One or two edits: a field deleted or given a value of another type."""
    edits = []
    for path in draw(st.lists(st.sampled_from(SPEC_PATHS), min_size=1, max_size=2,
                              unique=True)):
        node = SPEC_TREE
        for key in path:
            node = node[key]
        swaps = [v for v in SWAPS if type(v) is not type(node)]
        edits.append((path, draw(st.sampled_from(swaps + [DELETE]))))
    # apply deeper paths first so that deleting a parent never hides a child
    return sorted(edits, key=lambda edit: -len(edit[0]))


class TestSpec:
    @settings(max_examples=300, deadline=None)
    @given(mutations=spec_mutations())
    def test_mangled_spec_synthesizes_or_exits_2(self, files, mutations):
        try:
            text = mutated_spec(mutations)
        except (KeyError, IndexError, TypeError):
            return  # an earlier edit removed or replaced this path's parent
        path, out = files / "bad.json", files / "out.sdat"
        path.write_text(text)
        if run_cli(["synth", path, out, "--n", "2", "--seed", "1"], [out]) == 0:
            assert len(load_dataset(out)) == 2
        remove(out)


def groups_edits():
    line = st.binary(max_size=24) | st.text(max_size=24).map(str.encode)
    return st.lists(
        st.tuples(st.sampled_from(("flip", "cut", "insert", "drop_line")),
                  st.integers(0, 1 << 16), line),
        min_size=1, max_size=3,
    )


def mangle_groups(blob, edits):
    for kind, at, text in edits:
        if kind == "drop_line":
            lines = blob.split(b"\n")
            del lines[at % len(lines)]
            blob = b"\n".join(lines)
        elif not blob:
            blob = text
        elif kind == "flip":
            out = bytearray(blob)
            out[at % len(out)] ^= 1 + at % 255
            blob = bytes(out)
        elif kind == "cut":
            blob = blob[: at % len(blob)]
        else:
            blob = blob[: at % len(blob)] + text + blob[at % len(blob) :]
    return blob


class TestGroupsFile:
    @settings(max_examples=250, deadline=None)
    @given(edits=groups_edits())
    def test_mangled_groups_split_or_exit_2(self, files, edits):
        path = files / "bad.txt"
        path.write_bytes(mangle_groups((files / "groups.txt").read_bytes(), edits))
        train, val = files / "train.sdat", files / "val.sdat"
        argv = ["split", files / "data.sdat", "--folds", "2", "--fold", "1",
                "--groups-file", path, "--out-train", train, "--out-val", val]
        if run_cli(argv, [train, val]) == 0:
            assert len(load_dataset(train)) + len(load_dataset(val)) == 6
        remove(train, val)
