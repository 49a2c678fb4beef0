"""Crash-atomic text writes: publish-or-nothing semantics."""

import os
import stat

import pytest

from repro.common.atomicio import atomic_write_text, fsync_directory


class TestAtomicWriteText:
    def test_creates_file_and_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.txt"
        atomic_write_text(target, "payload\n")
        assert target.read_text() == "payload\n"

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_files_left_behind(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "payload")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_write_leaves_original_untouched(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("original")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(target, "\udcff unencodable", encoding="ascii")
        assert target.read_text() == "original"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_accepts_bare_filename(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        atomic_write_text("out.txt", "payload")
        assert (tmp_path / "out.txt").read_text() == "payload"

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["0022", "0077"])
    def test_mode_honours_the_umask_like_open(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "atomic.txt", "payload")
            with open(tmp_path / "plain.txt", "w") as handle:
                handle.write("payload")
        finally:
            os.umask(previous)

        def mode(name):
            return stat.S_IMODE(os.stat(tmp_path / name).st_mode)

        assert mode("atomic.txt") == mode("plain.txt") == 0o666 & ~umask


class TestFsyncDirectory:
    def test_existing_directory_is_fine(self, tmp_path):
        fsync_directory(str(tmp_path))

    def test_missing_directory_is_a_noop(self, tmp_path):
        fsync_directory(str(tmp_path / "nope"))
