"""The README's library example runs as written.  This file imports no scipy,
so it also runs where numpy is the only dependency installed."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The one python block under the README's "Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = section.split("```python\n")[1:]
    assert len(blocks) == 1, "expected one python block under Library use"
    return blocks[0].split("\n```", 1)[0]


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert len(namespace["history"]) == 2
    assert namespace["emb"].shape == (32, 64)
    assert namespace["params"].speakers == ["s0_000", "s0_001", "s0_002", "s0_003"]
    assert capsys.readouterr().out.startswith("2\t")
