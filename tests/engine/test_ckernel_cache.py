"""Build-cache key of the compiled kernel (no compile needed)."""

import os

from repro.engine import _ckernel


def test_tag_depends_on_compiler_path():
    assert _ckernel._tag("/usr/bin/gcc") != _ckernel._tag("/usr/bin/clang")
    assert _ckernel._tag("/usr/bin/gcc") == _ckernel._tag("/usr/bin/gcc")


def test_tag_depends_on_compile_flags(monkeypatch):
    plain = _ckernel._tag("/usr/bin/cc")
    compile_cmd = _ckernel._compile_cmd

    monkeypatch.setattr(
        _ckernel, "_compile_cmd",
        lambda cc, src, out: compile_cmd(cc, src, out) + ["-fsanitize=address"],
    )
    assert _ckernel._tag("/usr/bin/cc") != plain


def test_find_cc_honours_CC_and_resolves_it(tmp_path, monkeypatch):
    fake = tmp_path / "mycc"
    fake.write_text("#!/bin/sh\n")
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ['PATH']}")
    monkeypatch.setenv("CC", "mycc")
    assert _ckernel._find_cc() == str(fake)
    # A different $CC resolves to a different library tag.
    monkeypatch.delenv("CC")
    other = _ckernel._find_cc()
    if other is not None:
        assert _ckernel._tag(other) != _ckernel._tag(str(fake))
