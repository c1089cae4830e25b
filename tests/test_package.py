import gatecalc


def test_top_level_exports():
    e57 = gatecalc.make_eca(57)
    assert gatecalc.classify_eca(57).verdict is gatecalc.EcaVerdict.UNIVERSAL
    assert (e57 * e57).is_identity
    assert gatecalc.sign(gatecalc.project_formula(e57, 5)) == "even"
    assert gatecalc.diff_set("011", "111") == "100"
    assert gatecalc.__version__


def test_search_submodule_not_shadowed():
    from gatecalc import search

    assert callable(search.search)


def test_each_group_operation_and_name_has_one_way_in():
    # the method (or *) and make_named, not a module-level alias
    for alias in ("compose", "inverse", "shift_conjugate", "reverse_conjugate", "named_or_eca"):
        assert not hasattr(gatecalc, alias) and not hasattr(gatecalc.gates, alias)
