"""Builders shared by the test modules, which import this file as `helpers`
(pytest puts `tests/` on sys.path)."""

from hvector.model import ModelConfig


def tiny_config(n_speakers: int = 3, mode: str = "hvector") -> ModelConfig:
    """Smallest useful network, for gradient checking and fast training."""
    return ModelConfig(
        n_speakers=n_speakers, mode=mode, frames_per_fragment=4,
        frame_cnn_out=8, gru_hidden=4, seg_cnn_out=8, fc1_dim=8, fc2_dim=8,
    )
