import pytest

from ringtrain.profiles import MB, PROFILE_NAMES, all_profiles, build_profile

# (name, size_mb, chunks, batch) for the full evaluation table
TABLE = [
    ("AlexNet", 232.56, 16, 32),
    ("GoogleNet", 26.70, 116, 16),
    ("Inception-v3", 91.05, 556, 4),
    ("Mobilenet-v1", 16.23, 164, 8),
    ("Mobilenet-v2", 13.51, 320, 8),
    ("ResNet-50", 97.70, 321, 4),
    ("ResNet-101", 170.34, 626, 2),
    ("ResNet-152", 230.20, 932, 2),
    ("SequeezeNet-v1.0", 4.76, 52, 16),
    ("SequeezeNet-v1.1", 4.71, 52, 32),
]


@pytest.mark.parametrize("name,size_mb,chunks,batch", TABLE)
def test_registry_rows(name, size_mb, chunks, batch):
    p = build_profile(name)
    assert p.size_mb == size_mb
    assert p.num_chunks == chunks
    assert p.batch_per_device == batch
    assert len(p.chunk_elems) == chunks


def test_reference_examples():
    alex = build_profile("AlexNet")
    assert (alex.size_mb, alex.num_chunks, alex.batch_per_device) == (232.56, 16, 32)
    r152 = build_profile("ResNet-152")
    assert (r152.size_mb, r152.num_chunks, r152.batch_per_device) == (230.20, 932, 2)
    sq = build_profile("SequeezeNet-v1.1")
    assert (sq.size_mb, sq.num_chunks, sq.batch_per_device) == (4.71, 52, 32)


@pytest.mark.parametrize("name", PROFILE_NAMES)
def test_mass_conservation(name):
    p = build_profile(name)
    assert abs(4 * sum(p.chunk_elems) - p.size_mb * MB) <= 4.0


def test_aliases_resolve_to_table_spelling():
    assert build_profile("SqueezeNet-v1.1") == build_profile("SequeezeNet-v1.1")
    assert build_profile("SqueezeNet-v1.0").name == "SequeezeNet-v1.0"


def test_unknown_name_raises():
    with pytest.raises(ValueError):
        build_profile("VGG-16")


def test_all_profiles_has_ten_rows():
    assert len(all_profiles()) == 10
