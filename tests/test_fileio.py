from __future__ import annotations

import os

import pytest

from rfpnapo.fileio import write_text
from rfpnapo.numerics import MlpSpec, mlp_init, write_checkpoint


def _boom(*args, **kwargs):
    raise OSError("simulated failure")


@pytest.mark.parametrize("failing", ["fsync", "replace"])
def test_failed_write_keeps_the_previous_artifact(tmp_path, monkeypatch, failing):
    # the failure comes after the temp file holds the new bytes
    spec = MlpSpec(data_dim=2, cond_dim=1, hidden=(3,))
    writers = {
        "report.csv": lambda path, new: write_text(path, "a,b\n1,2\n" if new else "a,b\n"),
        "model.ckpt": lambda path, new: write_checkpoint(path, mlp_init(spec, 2 if new else 1), spec),
    }
    for name, write in writers.items():
        path = tmp_path / name / name  # the writer creates the directory
        write(str(path), new=False)
        before = path.read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(os, failing, _boom)
            with pytest.raises(OSError, match="simulated"):
                write(str(path), new=True)
        assert path.read_bytes() == before
        assert os.listdir(path.parent) == [name]
        write(str(path), new=True)
        assert path.read_bytes() != before
        assert os.listdir(path.parent) == [name]
