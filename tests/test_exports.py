import galoiskit


def test_every_export_resolves():
    missing = [name for name in galoiskit.__all__ if not hasattr(galoiskit, name)]
    assert missing == []
    assert len(set(galoiskit.__all__)) == len(galoiskit.__all__)
