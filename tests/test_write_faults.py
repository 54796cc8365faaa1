"""A command that fails while writing leaves each file it writes as it was or complete.

The file that the one writer, `corpus._write`, opens is made to fail after k
lines, at each write point of each subcommand in turn (docs/formats.md,
"Writing files").
"""

import errno
import re
import shutil
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import pytest

from gavel import cli, corpus
from gavel.corpus import QALabel, load_corpus
from gavel.fetcher import Fetcher
from test_cli import pipeline_steps

FAKE_FETCHER = partial(Fetcher, opener=lambda url: f"transcript at {url}\n".encode())


def commands(root: Path) -> list[list[str]]:
    """A fetch into `root`, then the fixture pipeline's commands."""
    fetch = ["fetch", "--ids", "h-1,h-2", "--endpoint", "https://example.test/{hearing_id}", "--min-delay", "0",
             "--cache-dir", str(root / "cache")]
    return [fetch, *pipeline_steps(root)]


COMMANDS = [" ".join(argv[:2]) if argv[0] == "classify-qa" else argv[0] for argv in commands(Path("."))]


def tree(root: Path) -> dict[str, bytes]:
    """The bytes of each file under `root`, by its path relative to `root`."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class FailingFile:
    """A file open for writing whose `writelines` writes `k` lines, then raises `fault`."""

    def __init__(self, fh, k: int, fault: BaseException):
        self.fh, self.k, self.fault = fh, k, fault

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def writelines(self, lines):
        for n, line in enumerate(lines):
            if n == self.k:
                break
            self.fh.write(line)
        self.fh.flush()  # the k lines reach the file, as they would before a crash
        raise self.fault


@contextmanager
def writes(monkeypatch, root: Path, fail_at: int = -1, k: int = 0, fault: BaseException = None):
    """Record the file each write under `root` puts in place, in order; the `fail_at`-th write fails."""
    targets: list[str] = []
    real_open = open

    def opened(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" not in mode:
            return fh
        path = Path(file)
        temporary = re.fullmatch(r"\.(.+)\.\d+\.tmp", path.name)  # a temporary file beside its target
        targets.append((path.with_name(temporary[1]) if temporary else path).relative_to(root).as_posix())
        return FailingFile(fh, k, fault) if len(targets) - 1 == fail_at else fh

    with monkeypatch.context() as mp:
        mp.setattr(corpus, "open", opened, raising=False)
        yield targets


@pytest.fixture(autouse=True)
def offline(monkeypatch):
    """`fetch` downloads from a test double."""
    monkeypatch.setattr(cli, "Fetcher", FAKE_FETCHER)


@pytest.fixture(scope="module")
def stages(tmp_path_factory) -> Path:
    """`stages / str(i)`: the tree the commands leave before the i-th of them runs."""
    base = tmp_path_factory.mktemp("stages")
    root = base / "run"
    root.mkdir()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "Fetcher", FAKE_FETCHER)
        for i, argv in enumerate(commands(root)):
            shutil.copytree(root, base / str(i))
            assert cli.main(argv) == 0, argv
    return base


def prepared(stages: Path, index: int, tmp_path: Path, monkeypatch) -> tuple[Path, dict, dict, list[str]]:
    """For the command at `index`: the tree it starts from, that tree's files, its files after a clean
    run, and the file each of its writes puts in place, in order.

    A file the command writes is given other bytes first where it is absent,
    so that a file left as it was can be told from one written again; a new
    store and the fetch cache are not, as a rerun would not write them.
    """
    start, work = tmp_path / "start", tmp_path / "work"
    shutil.copytree(stages / str(index), start)
    argv = commands(work)[index]
    shutil.copytree(start, work)
    with writes(monkeypatch, work) as targets:
        assert cli.main(argv) == 0
    shutil.rmtree(work)
    if argv[0] not in ("segment", "fetch"):
        for target in targets:
            if not (start / target).exists():
                (start / target).parent.mkdir(parents=True, exist_ok=True)
                (start / target).write_bytes(b"the previous version\n")
    shutil.copytree(start, work)
    assert cli.main(argv) == 0
    clean = tree(work)
    shutil.rmtree(work)
    return start, tree(start), clean, targets


def assert_left_whole(work: Path, before: dict, clean: dict, targets: list[str], fail_at: int) -> None:
    """Files written before the failure are complete, the failed one and the rest are as they were,
    and nothing else is left (no temporary file)."""
    expected = dict(before)
    for target in targets[:fail_at]:
        expected[target] = clean[target]
    assert tree(work) == expected


@pytest.mark.parametrize("index", range(len(COMMANDS)), ids=COMMANDS)
def test_a_failed_write_leaves_each_file_as_it_was_or_complete(stages, tmp_path, monkeypatch, capsys, index):
    start, before, clean, targets = prepared(stages, index, tmp_path, monkeypatch)
    assert targets[-1].endswith("manifest.json") and before != clean
    work = tmp_path / "work"
    for fail_at in range(len(targets)):
        for k in (0, 1):
            shutil.copytree(start, work)
            with writes(monkeypatch, work, fail_at, k, OSError(errno.ENOSPC, "No space left on device")):
                assert cli.main(commands(work)[index]) == 1
            assert "No space left on device" in capsys.readouterr().err
            assert_left_whole(work, before, clean, targets, fail_at)
            shutil.rmtree(work)


def test_an_interrupted_apply_leaves_a_store_that_loads(stages, tmp_path, monkeypatch, capsys):
    index = COMMANDS.index("classify-qa apply")
    start, before, clean, targets = prepared(stages, index, tmp_path, monkeypatch)
    stored = [t for t in targets if t.endswith("utterances.jsonl")]
    assert len(stored) == 3
    work = tmp_path / "work"
    shutil.copytree(start, work)
    with writes(monkeypatch, work, targets.index(stored[1]), 1, KeyboardInterrupt()):
        with pytest.raises(KeyboardInterrupt):
            cli.main(commands(work)[index])
    assert_left_whole(work, before, clean, targets, targets.index(stored[1]))
    labels = {meta.hearing_id: {u.qa_label for u in utterances} for meta, utterances in load_corpus(work / "corpus")}
    assert [labels[Path(t).parent.name] == {QALabel.UNLABELED} for t in stored] == [False, True, True]
    # and `pair` refuses it, rather than pairing the one labeled hearing
    hearing = Path(stored[1]).parent.name
    assert cli.main(commands(work)[COMMANDS.index("pair")]) == 1
    assert f"hearing {hearing}: utterance {hearing}-u00000 is Unlabeled" in capsys.readouterr().err
    assert not (work / "pairs.jsonl").exists()
