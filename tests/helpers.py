"""Builders shared by the test modules, which import this file as `helpers`
(pytest puts `tests/` on sys.path)."""

import struct
from pathlib import Path

import numpy as np

from hvector import model
from hvector.model import ModelConfig


def tiny_config(n_speakers: int = 3, mode: str = "hvector") -> ModelConfig:
    """Smallest useful network, for gradient checking and fast training."""
    return ModelConfig(
        n_speakers=n_speakers, mode=mode, frames_per_fragment=4,
        frame_cnn_out=8, gru_hidden=4, seg_cnn_out=8, fc1_dim=8, fc2_dim=8,
    )


def set_inference_batch(monkeypatch, cfg: ModelConfig, size: int):
    """Set the inference budget so that windows of cfg's shape, the longest
    given, run `size` to a batch."""
    widest = max(cfg.frame_cnn_out, cfg.frame_out_dim, cfg.seg_cnn_out)
    monkeypatch.setattr(model, "_INFERENCE_BUDGET",
                        size * cfg.n_fragments * cfg.frames_per_fragment * widest)


def save_old_archive(path, records: dict):
    """An archive in the layout hvector wrote before archives were zips of
    .npy records: b"HVTA" and a record count, then each record's
    length-prefixed name and its value, a length-prefixed UTF-8 text under
    b"HVS1" or a float64 array's rank, shape and bytes under b"HVT1"."""
    def counted(raw):
        return struct.pack("<q", len(raw)) + raw

    out = [b"HVTA", struct.pack("<q", len(records))]
    for name, value in records.items():
        out.append(counted(name.encode()))
        if isinstance(value, str):
            out += [b"HVS1", counted(value.encode())]
        else:
            arr = np.asarray(value, dtype="<f8")
            out += [b"HVT1", struct.pack(f"<{arr.ndim + 1}q", arr.ndim, *arr.shape),
                    arr.tobytes()]
    Path(path).write_bytes(b"".join(out))
