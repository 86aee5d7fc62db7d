from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from rfpnapo.cli import ALIGN_COLUMNS, PRETRAIN_COLUMNS, _write_metrics_csv, main
from rfpnapo.numerics import read_checkpoint, write_checkpoint

TINY_CFG = """
seed = 9
data.dim = 2
data.conditions = 2
model.hidden = 8,8
train.lr = 2e-3
train.steps = 40
train.batch = 8
pnapo.beta = 4.0
pnapo.n1 = 10
pnapo.n2 = 20
sampler.steps = 5
reward.kind = mode_distance
reward.params = 2,0 ; -2,0
"""


@pytest.fixture()
def tiny_cfg(tmp_path) -> str:
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


def _sha(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _run_pipeline(tmp_path, tiny_cfg, method="pnapo"):
    ref = str(tmp_path / "ref.ckpt")
    pairs = str(tmp_path / "pairs.txt")
    aligned = str(tmp_path / f"aligned_{method}.ckpt")
    assert main(["pretrain", "--config", tiny_cfg, "--out", ref]) == 0
    assert main(["gen-pairs", "--config", tiny_cfg, "--model", ref, "--n", "30", "--out", pairs]) == 0
    assert main(["align", "--config", tiny_cfg, "--model", ref, "--pairs", pairs,
                 "--out", aligned, "--method", method]) == 0
    return ref, pairs, aligned


def test_full_pipeline_produces_artifacts(tmp_path, tiny_cfg, capsys):
    ref, pairs, aligned = _run_pipeline(tmp_path, tiny_cfg)
    report = str(tmp_path / "report.csv")
    assert main(["eval", "--config", tiny_cfg, "--model", aligned, "--against", ref,
                 "--n", "5", "--out", report]) == 0
    for artifact in (ref, pairs, aligned, report):
        assert Path(artifact).exists()
        assert Path(artifact + ".manifest.json").exists()
    capsys.readouterr()

    metrics = Path(aligned + ".metrics.csv").read_text().splitlines()
    assert metrics[0] == "step,loss,margin_mean,beta_eff_mean,grad_norm"
    assert len(metrics) == 41
    pre_metrics = Path(ref + ".metrics.csv").read_text().splitlines()
    assert pre_metrics[0] == "step,loss,grad_norm"

    lines = Path(report).read_text().splitlines()
    assert lines[0] == "model,mean_reward,median_reward,win_rate,n,seed"
    assert lines[1].startswith("model,") and lines[2].startswith("against,")
    # paired win rates sum to one
    wr_a = float(lines[1].split(",")[3])
    wr_b = float(lines[2].split(",")[3])
    assert wr_a + wr_b == pytest.approx(1.0, abs=1e-15)


def test_first_align_loss_logged_at_reference_is_log_two(tmp_path, tiny_cfg, capsys):
    _, _, aligned = _run_pipeline(tmp_path, tiny_cfg)
    capsys.readouterr()
    first = Path(aligned + ".metrics.csv").read_text().splitlines()[1]
    loss = float(first.split(",")[1])
    assert loss == pytest.approx(np.log(2.0), abs=1e-9)


def test_manifest_hashes_are_correct(tmp_path, tiny_cfg, capsys):
    ref, pairs, _ = _run_pipeline(tmp_path, tiny_cfg)
    capsys.readouterr()
    doc = json.loads(Path(pairs + ".manifest.json").read_text())
    assert doc["artifact_version"] == 1
    assert doc["command"][0] == "gen-pairs"
    assert doc["config"]["seed"] == "9"
    for path, digest in {**doc["inputs"], **doc["outputs"]}.items():
        assert _sha(path) == digest
    # gen-pairs records the reference checkpoint hash it samples from
    assert doc["ref_hash"] == _sha(ref)


def test_rerun_is_byte_identical(tmp_path, tiny_cfg, capsys):
    ref1 = str(tmp_path / "a" / "ref.ckpt")
    ref2 = str(tmp_path / "b" / "ref.ckpt")
    assert main(["pretrain", "--config", tiny_cfg, "--out", ref1]) == 0
    assert main(["pretrain", "--config", tiny_cfg, "--out", ref2]) == 0
    capsys.readouterr()
    assert Path(ref1).read_bytes() == Path(ref2).read_bytes()
    assert Path(ref1 + ".metrics.csv").read_bytes() == Path(ref2 + ".metrics.csv").read_bytes()
    m1 = json.loads(Path(ref1 + ".manifest.json").read_text())
    m2 = json.loads(Path(ref2 + ".manifest.json").read_text())
    assert m1["outputs"][ref1] == m2["outputs"][ref2]
    assert m1["config"] == m2["config"]


@pytest.mark.parametrize(
    "field, value",
    [(1, "nan 0.5"), (4, "1 -inf"), (5, "nan"), (0, "0.5 0.5"), (0, "1 1")],
)
def test_bad_pair_content_exits_parse_error_with_line(tmp_path, tiny_cfg, capsys, field, value):
    # non-finite numbers and non-one-hot conditions fail at parse time (exit 5),
    # not later as a numeric failure or a silently argmax-ed condition
    ref = str(tmp_path / "ref.ckpt")
    pairs = tmp_path / "pairs.txt"
    assert main(["pretrain", "--config", tiny_cfg, "--out", ref]) == 0
    assert main(["gen-pairs", "--config", tiny_cfg, "--model", ref, "--n", "4", "--out", str(pairs)]) == 0
    capsys.readouterr()
    lines = pairs.read_text().splitlines()
    fields = lines[3].split(" | ")
    fields[field] = value
    lines[3] = " | ".join(fields)
    pairs.write_text("\n".join(lines) + "\n")
    rc = main(["align", "--config", tiny_cfg, "--model", ref, "--pairs", str(pairs),
               "--out", str(tmp_path / "a.ckpt")])
    assert rc == 5
    assert "line 4:" in capsys.readouterr().err
    assert not (tmp_path / "a.ckpt").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_config_float_exits_config_error(tmp_path, capsys, value):
    lines = TINY_CFG.splitlines()
    cases = [  # (key, line index, replacement line); an index past the end appends
        ("train.lr", lines.index("train.lr = 2e-3"), f"train.lr = {value}"),
        ("reward.params", lines.index("reward.params = 2,0 ; -2,0"), f"reward.params = {value},0 ; -2,0"),
        ("data.mixture.modes", len(lines), f"data.mixture.modes = 1,{value} ; 0,0"),
    ]
    for key, index, bad_line in cases:
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("\n".join(lines[:index] + [bad_line] + lines[index + 1:]) + "\n")
        assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")]) == 2
        assert f"{cfg}:{index + 1}: bad value for {key}" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()


def test_dpo_alignment_ignores_stored_noise_fields(tmp_path, tiny_cfg, capsys):
    ref, pairs, aligned = _run_pipeline(tmp_path, tiny_cfg, method="dpo")
    # corrupt the stored noise columns (fields 4 and 5 of each record line)
    lines = Path(pairs).read_text().splitlines()
    rng = np.random.default_rng(0)
    corrupted_lines = [lines[0]]
    for line in lines[1:]:
        fields = line.split(" | ")
        dim = len(fields[3].split())
        fields[3] = " ".join(f"{v:.17g}" for v in rng.standard_normal(dim))
        fields[4] = " ".join(f"{v:.17g}" for v in rng.standard_normal(dim))
        corrupted_lines.append(" | ".join(fields))
    corrupted = str(tmp_path / "pairs_corrupted.txt")
    Path(corrupted).write_text("\n".join(corrupted_lines) + "\n")
    aligned2 = str(tmp_path / "aligned_dpo2.ckpt")
    assert main(["align", "--config", tiny_cfg, "--model", ref, "--pairs", corrupted,
                 "--out", aligned2, "--method", "dpo"]) == 0
    capsys.readouterr()
    assert Path(aligned2).read_bytes() == Path(tmp_path / "aligned_dpo.ckpt").read_bytes()


def test_align_manifest_records_matching_ref_hash(tmp_path, tiny_cfg, capsys):
    ref, pairs, aligned = _run_pipeline(tmp_path, tiny_cfg)
    assert "note" not in capsys.readouterr().err
    doc = json.loads(Path(aligned + ".manifest.json").read_text())
    assert doc["ref_hash"] == doc["pairs_ref_hash"] == _sha(ref)
    assert doc["ref_hash_match"] is True


def test_align_on_pairs_from_another_model_notes_the_mismatch(tmp_path, tiny_cfg, capsys):
    ref, pairs, aligned = _run_pipeline(tmp_path, tiny_cfg)
    stdout_match = capsys.readouterr().out.splitlines()[-1]
    # the same pairs, labelled as sampled from some other checkpoint
    lines = Path(pairs).read_text().splitlines()
    other_hash = "0" * 64
    lines[0] = lines[0].replace(f"refhash={_sha(ref)}", f"refhash={other_hash}")
    assert lines[0].endswith(other_hash)
    foreign = str(tmp_path / "foreign_pairs.txt")
    Path(foreign).write_text("\n".join(lines) + "\n")
    aligned2 = str(tmp_path / "aligned2.ckpt")
    assert main(["align", "--config", tiny_cfg, "--model", ref, "--pairs", foreign,
                 "--out", aligned2]) == 0
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "note" in captured.err and other_hash in captured.err and _sha(ref) in captured.err
    doc = json.loads(Path(aligned2 + ".manifest.json").read_text())
    assert doc["ref_hash"] == _sha(ref)
    assert doc["pairs_ref_hash"] == other_hash
    assert doc["ref_hash_match"] is False
    # a mismatch is not an error: stdout and the artifacts are those of the matching run
    assert captured.out.splitlines()[-1] == stdout_match.replace(aligned, aligned2)
    assert Path(aligned2).read_bytes() == Path(aligned).read_bytes()
    assert Path(aligned2 + ".metrics.csv").read_bytes() == Path(aligned + ".metrics.csv").read_bytes()


def test_eval_model_against_itself_wins_half(tmp_path, tiny_cfg, capsys):
    ref = str(tmp_path / "ref.ckpt")
    assert main(["pretrain", "--config", tiny_cfg, "--out", ref]) == 0
    report = str(tmp_path / "self.csv")
    assert main(["eval", "--config", tiny_cfg, "--model", ref, "--against", ref,
                 "--n", "4", "--out", report]) == 0
    capsys.readouterr()
    win = float(Path(report).read_text().splitlines()[1].split(",")[3])
    assert win == 0.5


def test_gen_pairs_n_zero_writes_header_only(tmp_path, tiny_cfg, capsys):
    ref = str(tmp_path / "ref.ckpt")
    assert main(["pretrain", "--config", tiny_cfg, "--out", ref]) == 0
    out = str(tmp_path / "empty.txt")
    assert main(["gen-pairs", "--config", tiny_cfg, "--model", ref, "--n", "0", "--out", out]) == 0
    capsys.readouterr()
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("rfpnapo-pairs v1 ")


def test_exit_codes(tmp_path, tiny_cfg, capsys):
    ref = str(tmp_path / "ref.ckpt")
    assert main(["pretrain", "--config", tiny_cfg, "--out", ref]) == 0

    # 2: config trouble (missing required key)
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("seed = 1\n")
    assert main(["pretrain", "--config", str(bad_cfg), "--out", str(tmp_path / "x.ckpt")]) == 2

    # 2: a negative seed, which numpy's generators reject, fails at parse time
    for command in ("pretrain", "gen-pairs"):
        neg_cfg = tmp_path / "neg_seed.cfg"
        neg_cfg.write_text(TINY_CFG.replace("seed = 9", "seed = -1"))
        argv = ["--config", str(neg_cfg), "--out", str(tmp_path / "x.out")]
        if command == "gen-pairs":
            argv += ["--model", ref, "--n", "2"]
        capsys.readouterr()
        assert main([command, *argv]) == 2, command
        assert f"{neg_cfg}:2: bad value for seed: expected a non-negative integer" in capsys.readouterr().err

    # 2: unknown config key
    unk_cfg = tmp_path / "unk.cfg"
    unk_cfg.write_text(TINY_CFG + "quantum.flux = 1\n")
    assert main(["pretrain", "--config", str(unk_cfg), "--out", str(tmp_path / "x.ckpt")]) == 2

    # 2: a value the model, mixture or sampler rejects, reported under its key
    capsys.readouterr()
    for command, key, old, new in (
        ("pretrain", "data.dim", "data.dim = 2", "data.dim = 0"),
        ("pretrain", "model.hidden", "model.hidden = 8,8", "model.hidden = 0"),
        ("pretrain", "data.mixture.std", "seed = 9", "seed = 9\ndata.mixture.std = -1"),
        ("gen-pairs", "sampler.steps", "sampler.steps = 5", "sampler.steps = 0"),
    ):
        bad_value = tmp_path / "bad_value.cfg"
        bad_value.write_text(TINY_CFG.replace(old, new))
        argv = ["--config", str(bad_value), "--out", str(tmp_path / "x.out")]
        if command == "gen-pairs":
            argv += ["--model", ref, "--n", "2"]
        assert main([command, *argv]) == 2, key
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x.out").exists()

    # 3: missing checkpoint
    assert main(["gen-pairs", "--config", tiny_cfg, "--model", str(tmp_path / "nope.ckpt"),
                 "--n", "2", "--out", str(tmp_path / "p.txt")]) == 3

    # 3: missing config file
    assert main(["pretrain", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "x.ckpt")]) == 3

    # 5: malformed dataset
    bad_pairs = tmp_path / "bad_pairs.txt"
    bad_pairs.write_text("not a dataset header\n")
    assert main(["align", "--config", tiny_cfg, "--model", ref,
                 "--pairs", str(bad_pairs), "--out", str(tmp_path / "a.ckpt")]) == 5

    # 4: dimension mismatch between dataset and checkpoint
    pairs = str(tmp_path / "pairs.txt")
    assert main(["gen-pairs", "--config", tiny_cfg, "--model", ref, "--n", "3", "--out", pairs]) == 0
    text = Path(pairs).read_text().replace("cdim=2", "cdim=4")
    mismatched = tmp_path / "mismatched.txt"
    mismatched.write_text(text)
    rc = main(["align", "--config", tiny_cfg, "--model", ref,
               "--pairs", str(mismatched), "--out", str(tmp_path / "a.ckpt")])
    assert rc in (4, 5)  # header-vs-record width may parse-fail first

    # 5: a checkpoint with a non-finite parameter fails at load, not in the sampler
    params, spec = read_checkpoint(ref)
    params[0] = np.nan
    nan_ckpt = str(tmp_path / "nan.ckpt")
    write_checkpoint(nan_ckpt, params, spec)
    capsys.readouterr()
    assert main(["gen-pairs", "--config", tiny_cfg, "--model", nan_ckpt,
                 "--n", "2", "--out", str(tmp_path / "p.txt")]) == 5
    assert "non-finite" in capsys.readouterr().err

    # 5: corrupt checkpoint bytes
    bad_ckpt = tmp_path / "bad.ckpt"
    bad_ckpt.write_bytes(b"\x00" * 32)
    assert main(["eval", "--config", tiny_cfg, "--model", str(bad_ckpt),
                 "--against", ref, "--out", str(tmp_path / "r.csv")]) == 5
    capsys.readouterr()


def test_eval_compares_checkpoints_of_different_widths(tmp_path, tiny_cfg, capsys):
    ref, _, aligned = _run_pipeline(tmp_path, tiny_cfg)
    narrow_cfg = tmp_path / "narrow.cfg"
    narrow_cfg.write_text(TINY_CFG.replace("model.hidden = 8,8", "model.hidden = 16"))
    narrow = str(tmp_path / "narrow.ckpt")
    assert main(["pretrain", "--config", str(narrow_cfg), "--out", narrow]) == 0
    report = str(tmp_path / "report.csv")
    for model, against in ((aligned, narrow), (narrow, ref)):
        assert main(["eval", "--config", tiny_cfg, "--model", model, "--against", against,
                     "--n", "5", "--out", report]) == 0
        rows = [line.split(",")[0] for line in Path(report).read_text().splitlines()[1:]]
        assert rows == ["model", "against"]
    capsys.readouterr()


@pytest.mark.parametrize("kind, code", [("config", 2), ("pairs", 5), ("corpus", 5)])
def test_non_utf8_input_fails_on_its_line(tmp_path, tiny_cfg, capsys, kind, code):
    out = str(tmp_path / "x.out")
    bad = tmp_path / f"bad.{kind}"
    if kind == "config":
        lines = TINY_CFG.splitlines()  # line 1 is blank
        bad.write_bytes("\n".join(lines[:3]).encode() + b"\n# caf\xff\n" + "\n".join(lines[3:]).encode())
        argv = ["pretrain", "--config", str(bad), "--out", out]
        where = f"{bad}:4: "
    elif kind == "pairs":
        ref, pairs, _ = _run_pipeline(tmp_path, tiny_cfg)
        lines = Path(pairs).read_bytes().split(b"\n")
        bad.write_bytes(b"\n".join(lines[:3] + [lines[3] + b"\xff"] + lines[4:]))
        argv = ["align", "--config", tiny_cfg, "--model", ref, "--pairs", str(bad), "--out", out]
        where = "line 4: "
    else:
        bad.write_bytes(b"id\ttext\ttox\te0\nr0\tok\t0.0\t1.0\nr1\tcaf\xe9\t0.0\t2.0\n")
        argv = ["corpus", str(bad), "--config", tiny_cfg, "--out", out]
        where = "line 3: "
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert where in err and "not UTF-8" in err
    assert not Path(out).exists()


def test_align_dim_mismatch_via_different_checkpoint(tmp_path, tiny_cfg, capsys):
    # pairs from a 2-condition model, align against a 3-condition model: exit 4
    ref, pairs, _ = _run_pipeline(tmp_path, tiny_cfg)
    other_cfg = tmp_path / "other.cfg"
    other_cfg.write_text(TINY_CFG.replace("data.conditions = 2", "data.conditions = 3")
                         .replace("reward.params = 2,0 ; -2,0", "reward.params = 2,0 ; -2,0 ; 0,2"))
    other = str(tmp_path / "other.ckpt")
    assert main(["pretrain", "--config", str(other_cfg), "--out", other]) == 0
    rc = main(["align", "--config", tiny_cfg, "--model", other, "--pairs", pairs,
               "--out", str(tmp_path / "x.ckpt")])
    assert rc == 4
    capsys.readouterr()


def test_verify_subcommand_exit_codes(capsys):
    assert main(["verify", "--suite", "schedule"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "," in l]
    assert all(l.split(",")[1] == "PASS" for l in lines)


def test_corpus_subcommand_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "corpus.cfg"
    cfg.write_text("""
seed = 4
corpus.toxicity_threshold = 0.1
corpus.jaccard_threshold = 0.8
corpus.cosine_threshold = 0.8
corpus.k_clusters = 2
corpus.per_cluster = 2
corpus.kmeans_iters = 10
""")
    src = tmp_path / "in.tsv"
    rows = ["id\ttext\ttox\te0\te1"]
    for i in range(8):
        angle = 0.7 * i
        rows.append(f"r{i}\tprompt number {i} body {i * 3}\t0.01\t{np.cos(angle):.17g}\t{np.sin(angle):.17g}")
    rows.append("tox1\tbad one\t0.9\t0.1\t0.2")
    src.write_text("\n".join(rows) + "\n")
    out = str(tmp_path / "out.tsv")
    assert main(["corpus", str(src), "--config", str(cfg), "--out", out]) == 0
    capsys.readouterr()
    doc = json.loads(Path(out + ".manifest.json").read_text())
    counts = doc["stage_counts"]
    assert counts["input"] == 9
    assert counts["after_toxicity"] == 8
    assert counts["output"] <= 4
    kept, dim = Path(out).read_text(), 2
    assert kept.splitlines()[0] == "id\ttext\ttox\te0\te1"

    # parse failure propagates as exit 5
    broken = tmp_path / "broken.tsv"
    broken.write_text("id\ttext\ttox\te0\ne1\tx\tnot_a_number\t0\n")
    assert main(["corpus", str(broken), "--config", str(cfg), "--out", out]) == 5
    capsys.readouterr()

    # so does a non-finite embedding, before it reaches k-means
    broken.write_text("\n".join(rows[:3] + ["r9\tnan row\t0.01\tnan\t1.0"] + rows[3:]) + "\n")
    assert main(["corpus", str(broken), "--config", str(cfg), "--out", out]) == 5
    assert "line 4: non-finite" in capsys.readouterr().err


def test_corpus_empty_input(tmp_path, capsys):
    cfg = tmp_path / "corpus.cfg"
    cfg.write_text("seed = 1\n")
    src = tmp_path / "in.tsv"
    src.write_text("")
    out = str(tmp_path / "out.tsv")
    assert main(["corpus", str(src), "--config", str(cfg), "--out", out]) == 0
    capsys.readouterr()
    back = Path(out).read_text()
    assert back == "" or back.startswith("id\t")


def test_pretrain_curve_fixture_converges(tmp_path, capsys):
    # committed two-mode fixture: the last batch loss must sit far below the
    # step-10 batch loss
    out = str(tmp_path / "curve.ckpt")
    assert main(["pretrain", "--config", str(FIXTURES / "pretrain_curve.cfg"), "--out", out]) == 0
    capsys.readouterr()
    rows = Path(out + ".metrics.csv").read_text().splitlines()[1:]
    by_step = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert by_step[3000] < 0.2 * by_step[10]


def test_checkpoint_spec_round_trip_through_cli(tmp_path, tiny_cfg, capsys):
    ref = str(tmp_path / "ref.ckpt")
    assert main(["pretrain", "--config", tiny_cfg, "--out", ref]) == 0
    capsys.readouterr()
    _, spec = read_checkpoint(ref)
    assert spec.data_dim == 2 and spec.cond_dim == 2 and spec.hidden == (8, 8)


@pytest.mark.parametrize("columns, header", [
    (PRETRAIN_COLUMNS, "step,loss,grad_norm"),
    (ALIGN_COLUMNS, "step,loss,margin_mean,beta_eff_mean,grad_norm"),
])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_metrics_csv_round_trips_bitwise(tmp_path_factory, columns, header, data):
    cells = {col: st.integers(1, 2**63) if col == "step" else st.floats(allow_nan=False) for col in columns}
    rows = data.draw(st.lists(st.fixed_dictionaries(cells), max_size=12))
    path = tmp_path_factory.mktemp("metrics") / "run.metrics.csv"
    _write_metrics_csv(str(path), rows, columns)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == header
    assert len(lines) == len(rows) + 1
    for row, line in zip(rows, lines[1:]):
        back = line.split(",")
        assert len(back) == len(columns)
        for col, cell in zip(columns, back):
            if col == "step":
                assert int(cell) == row[col] and cell == str(row[col])
            else:
                assert np.float64(float(cell)).tobytes() == np.float64(row[col]).tobytes(), col
