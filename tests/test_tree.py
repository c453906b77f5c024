"""Decomposition trees: structure, numbering, storage conservation."""

import hashlib

import pytest

from quickfourier import classical, improved, tree
from quickfourier.taxonomy import MIN_N, SIGNAL_TYPES, storage_sizes


def test_root_types():
    assert tree.build_tree("improved", "cdft", 16).sig_type == "cx_tt"
    assert tree.build_tree("improved", "rdft", 16).sig_type == "re_tt"
    assert tree.build_tree("classical", "dct0", 16).sig_type == "dc_tt"
    assert tree.build_tree("classical", "dst0", 16).sig_type == "ds_tt"


def test_top_level_structure():
    root = tree.build_tree("improved", "cdft", 64)
    assert [c.sig_type for c in root.children] == ["re_tt", "re_tt"]
    assert [c.N for c in root.children] == [64, 64]
    real = root.children[0]
    assert [c.sig_type for c in real.children] == ["dc_tt", "ds_tt"]
    assert [c.N for c in real.children] == [64, 64]


def test_classical_cosine_structure():
    root = tree.build_tree("classical", "dct0", 16)
    assert [(c.sig_type, c.N) for c in root.children] == [("dc_tt", 8), ("dc_to", 16)]
    assert [(m.sig_type, m.N) for m in root.intermediates] == [("dc_te", 16)]
    odd = root.children[1]
    assert [(c.sig_type, c.N) for c in odd.children] == [("dc_tt", 4), ("dc_to", 8)]
    assert [(m.sig_type, m.N) for m in odd.intermediates] == [
        ("dc_t1e", 16), ("dc_t1t", 8), ("dc_te", 8)]
    # the odd-harmonic bases are leaves
    assert odd.children[1].is_leaf


def test_improved_cosine_structure():
    root = tree.build_tree("improved", "dct0", 32)
    assert [(c.sig_type, c.N) for c in root.children] == [("dc_tt", 16), ("dc_ot", 32)]
    assert [(m.sig_type, m.N) for m in root.intermediates] == [("dc_et", 32)]
    ot = root.children[1]
    assert [(c.sig_type, c.N) for c in ot.children] == [("dc_ot", 16), ("dc_ot", 16)]
    assert [(m.sig_type, m.N) for m in ot.intermediates] == [("dc_oe", 32), ("dc_oo", 32)]
    # the converted odd-odd child is a dc_ot like the even one, and splits
    # the same way
    converted = ot.children[1]
    assert [(c.sig_type, c.N) for c in converted.children] == [("dc_ot", 8), ("dc_ot", 8)]
    assert [(m.sig_type, m.N) for m in converted.intermediates] == [
        ("dc_oe", 16), ("dc_oo", 16)]


def test_classical_sine_structure():
    root = tree.build_tree("classical", "dst0", 16)
    assert [(c.sig_type, c.N) for c in root.children] == [("ds_tt", 8), ("ds_to", 16)]
    odd = root.children[1]
    assert [(c.sig_type, c.N) for c in odd.children] == [("ds_tt", 8), ("ds_e1o", 16)]
    assert [(m.sig_type, m.N) for m in odd.intermediates] == [
        ("ds_t1o", 16), ("ds_te", 16)]
    assert odd.children[1].is_leaf  # the one-cell centre signal


def test_improved_trees_never_use_t1_types():
    for transform in ("cdft", "rdft", "dct0", "dst0"):
        root = tree.build_tree("improved", transform, 256)
        for node in tree.iter_nodes(root):
            for sig in [node] + node.intermediates:
                assert "1" not in sig.sig_type.split("_")[1]


def test_every_node_is_well_formed():
    for algo in ("classical", "improved"):
        for transform in ("cdft", "rdft", "dct0", "dst0"):
            root = tree.build_tree(algo, transform, 128)
            for node in tree.iter_nodes(root):
                for sig in [node] + node.intermediates:
                    assert sig.sig_type in SIGNAL_TYPES
                    assert sig.N >= MIN_N[sig.sig_type]
                    sizes = storage_sizes(sig.sig_type, sig.N)
                    assert (sig.ln, sig.lk) == (sizes.ln, sizes.lk)


def test_level_numbering_outputs_first():
    root = tree.build_tree("improved", "dct0", 16)
    assert root.label == "s1,1"
    # level 2: the two recursed children come before the intermediate
    assert [c.label for c in root.children] == ["s2,1", "s2,2"]
    assert [m.label for m in root.intermediates] == ["s2,3"]
    # level 3: outputs of s2,1 then s2,2 first, then their intermediates
    lvl3 = (root.children[0].children + root.children[1].children,
            root.children[0].intermediates + root.children[1].intermediates)
    assert [n.label for n in lvl3[0]] == ["s3,1", "s3,2", "s3,3", "s3,4"]
    assert [n.label for n in lvl3[1]] == ["s3,5", "s3,6", "s3,7"]


def test_labels_unique_per_level():
    root = tree.build_tree("classical", "cdft", 256)
    seen = set()

    def visit(node):
        key = (node.level, node.pos)
        assert key not in seen
        seen.add(key)
        for c in node.children + node.intermediates:
            visit(c)

    visit(root)


@pytest.mark.parametrize("transform", ["cdft", "rdft", "dct0", "dst0"])
def test_improved_conserves_storage(transform):
    N = 4
    while N <= 1024:
        if not (transform == "dst0" and N < 4):
            root = tree.build_tree("improved", transform, N)
            assert tree.conservation_violations(root, allow_t1_growth=False) == []
        N *= 2


@pytest.mark.parametrize("transform", ["cdft", "rdft", "dct0", "dst0"])
def test_classical_grows_only_at_odd_cosine_steps(transform):
    N = 4
    while N <= 1024:
        root = tree.build_tree("classical", transform, N)
        assert tree.conservation_violations(root, allow_t1_growth=True) == []
        for check in tree.storage_checks(root):
            if check.sig_type == "dc_to":
                assert check.delta == (1, 1)
            else:
                assert check.delta == (0, 0)
        N *= 2


def test_render_tree_dump():
    root = tree.build_tree("improved", "dct0", 8)
    text = tree.render_tree(root, "improved", "dct0")
    lines = text.splitlines()
    assert lines[0] == "improved dct0 N=8"
    assert "s1,1 dc_tt N=8 ln=5 lk=5" in lines[1]
    assert any("dc_oo N=8" in ln for ln in lines)
    assert any("* dc_et N=8" in ln for ln in lines)


def test_validation():
    with pytest.raises(ValueError):
        tree.build_tree("fast", "cdft", 16)
    with pytest.raises(ValueError):
        tree.build_tree("improved", "dft", 16)
    with pytest.raises(ValueError):
        tree.build_tree("improved", "cdft", 12)
    with pytest.raises(ValueError):
        tree.build_tree("improved", "dst0", 2)


# sha256 of every dump for N = 2..2048 (dst0 from 4), joined by blank lines
RENDER_SHA256 = {
    ("classical", "cdft"): "e03c5a4fbf07148919f7aa19d9eea4063ee11b411afe1b54ba76c60174560545",
    ("classical", "rdft"): "33a87fe23b178284cb46b8fb86599cf06e6a95c23a846b0e71089ea62c808977",
    ("classical", "dct0"): "2d04a774973cf5b4f464fa57fa5302d3b895d33bb91fdd706d6ac300a3544af3",
    ("classical", "dst0"): "04f8fd90bed696d2af91941b62a7c6d2bc9bd2369b5f0eedece55540d6d06733",
    ("improved", "cdft"): "eb424e79408b10e764d90c0893af293c830519041cb3d1aafff286b05ff96952",
    ("improved", "rdft"): "a05cf4c321444c458f055c0fe0ab5c603c27b1e159068af2b8d277248fcde70a",
    ("improved", "dct0"): "b93e4a945830d7d7860025912c94e7e72d1b4c53742d54b57f90821e141b9656",
    ("improved", "dst0"): "6d3547aacd88e70cc861e37f9ce07ee23fbfbaed02f747250922b1898d2413b1",
}


@pytest.mark.parametrize("algorithm,transform", sorted(RENDER_SHA256))
def test_render_tree_is_pinned(algorithm, transform):
    dumps = []
    N = 4 if transform == "dst0" else 2
    while N <= 2048:
        dumps.append(tree.render_tree(tree.build_tree(algorithm, transform, N),
                                      algorithm, transform))
        N *= 2
    digest = hashlib.sha256("\n\n".join(dumps).encode()).hexdigest()
    assert digest == RENDER_SHA256[(algorithm, transform)]


@pytest.mark.parametrize("algorithm", ["classical", "improved"])
def test_tree_reads_the_live_step_table(algorithm, monkeypatch):
    # put in a step with another via: the tree must draw it
    module = {"classical": classical, "improved": improved}[algorithm]
    before = tree.build_tree(algorithm, "dct0", 16)
    assert [(m.sig_type, m.N) for m in before.intermediates] != [("dc_tt", 16)]
    step = module.STEPS["dc_tt"]._replace(via=(("dc_tt", 0),))
    monkeypatch.setitem(module.STEPS, "dc_tt", step)
    after = tree.build_tree(algorithm, "dct0", 16)
    assert [(m.sig_type, m.N) for m in after.intermediates] == [("dc_tt", 16)]
    assert [(c.sig_type, c.N) for c in after.children] == [
        (c.sig_type, c.N) for c in before.children]


def test_t1_allowance_is_read_off_the_step_table(monkeypatch):
    # classical's dc_to step forms the wider t1 signals, improved forms
    # none; a table that gains one must be audited with the allowance
    assert tree.allows_t1_growth("classical")
    assert not tree.allows_t1_growth("improved")
    step = improved.STEPS["dc_ot"]
    monkeypatch.setitem(improved.STEPS, "dc_ot", step._replace(via=(("dc_t1e", 0),)))
    assert tree.allows_t1_growth("improved")
