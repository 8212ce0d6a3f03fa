"""repro.lint.flow: lattice algebra and the per-scope dataflow walk.

These tests exercise the flow engine directly — the rule-level behavior it
enables (R003/R004/R007/R009) is covered in ``test_lint.py``. Here we
pin the lattice semantics the rules rely on: joins degrade and never
invent, unit algebra follows the link-budget conventions, orderedness
taints through containers, and scopes are genuinely independent.
"""

import ast

import pytest

from repro.lint import (
    AbstractValue,
    Orderedness,
    analyze_flow,
    unit_dimension,
    unit_suffix,
)
from repro.lint.flow import UNKNOWN_VALUE


def value_at(source: str, pick) -> AbstractValue:
    """Flow-analyze ``source`` and return the value of the node ``pick``
    selects from the parsed tree."""
    tree = ast.parse(source)
    info = analyze_flow(tree)
    return info.value_of(pick(tree))


def load_of(source: str, name: str) -> AbstractValue:
    """Value of the *last* Load of ``name`` in ``source``."""
    tree = ast.parse(source)
    info = analyze_flow(tree)
    loads = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and node.id == name
        and isinstance(node.ctx, ast.Load)
    ]
    assert loads, f"no Load of {name!r} in fixture"
    return info.value_of(loads[-1])


class TestUnitVocabulary:
    def test_suffix_extraction(self):
        assert unit_suffix("span_km") == "km"
        assert unit_suffix("launch_power_dbm") == "dbm"
        assert unit_suffix("MAX_SPAN_KM") == "km"
        assert unit_suffix("kilometers") is None
        assert unit_suffix("total") is None

    def test_dimensions(self):
        assert unit_dimension("km") == unit_dimension("m") == "length"
        assert unit_dimension("db") == unit_dimension("dbm") == "power"
        assert unit_dimension("gbps") == "rate"
        assert unit_dimension("furlong") is None


class TestOrderednessLattice:
    def test_join_is_commutative_and_unordered_dominates(self):
        for a in Orderedness:
            for b in Orderedness:
                assert a.join(b) is b.join(a)
        assert Orderedness.ORDERED.join(Orderedness.UNORDERED) is (
            Orderedness.UNORDERED
        )
        assert Orderedness.UNKNOWN.join(Orderedness.UNORDERED) is (
            Orderedness.UNORDERED
        )
        assert Orderedness.ORDERED.join(Orderedness.UNKNOWN) is Orderedness.UNKNOWN

    def test_join_is_idempotent(self):
        for state in Orderedness:
            assert state.join(state) is state

    def test_value_join_drops_conflicting_units(self):
        km = AbstractValue(unit="km", ordered=Orderedness.ORDERED)
        s = AbstractValue(unit="s", ordered=Orderedness.ORDERED)
        assert km.join(s).unit is None
        assert km.join(km).unit == "km"


class TestAssignmentsAndAliases:
    def test_set_call_taints_the_name(self):
        value = load_of("s = set(items)\nuse(s)\n", "s")
        assert value.is_unordered
        assert value.origin == "set(...)"
        assert value.origin_line == 1

    def test_alias_chains_preserve_the_taint(self):
        value = load_of("s = {1}\nt = s\nu = t\nuse(u)\n", "u")
        assert value.is_unordered
        assert value.origin == "set literal"

    def test_rebinding_clears_the_taint(self):
        value = load_of("s = set(items)\ns = sorted(s)\nuse(s)\n", "s")
        assert value.ordered is Orderedness.ORDERED

    def test_unit_suffix_on_name_is_a_declaration(self):
        value = load_of("span_km = compute()\nuse(span_km)\n", "span_km")
        assert value.unit == "km"

    def test_unit_propagates_through_alias(self):
        value = load_of("x = span_km\nuse(x)\n", "x")
        assert value.unit == "km"

    def test_tuple_unpacking_tracks_elementwise(self):
        value = load_of("a, b = set(x), [1]\nuse(a)\n", "a")
        assert value.is_unordered
        value = load_of("a, b = set(x), [1]\nuse(b)\n", "b")
        assert value.ordered is Orderedness.ORDERED

    def test_walrus_binds(self):
        value = load_of("if (s := set(items)):\n    use(s)\n", "s")
        assert value.is_unordered

    def test_del_forgets(self):
        value = load_of("s = set(x)\ndel s\nuse(s)\n", "s")
        assert not value.is_unordered


class TestBranchJoins:
    def test_if_joins_both_arms(self):
        src = "if c:\n    s = set(x)\nelse:\n    s = [1]\nuse(s)\n"
        assert load_of(src, "s").is_unordered

    def test_if_without_else_joins_with_entry(self):
        src = "s = [1]\nif c:\n    s = set(x)\nuse(s)\n"
        assert load_of(src, "s").is_unordered

    def test_both_arms_ordered_stays_ordered(self):
        src = "if c:\n    s = [1]\nelse:\n    s = sorted(x)\nuse(s)\n"
        assert load_of(src, "s").ordered is Orderedness.ORDERED

    def test_loop_body_binding_joins_with_entry(self):
        src = "s = [1]\nfor i in items:\n    s = set(i)\nuse(s)\n"
        assert load_of(src, "s").is_unordered

    def test_try_handler_binding_joins(self):
        src = (
            "s = [1]\ntry:\n    s = set(x)\n"
            "except ValueError:\n    s = [2]\nuse(s)\n"
        )
        assert load_of(src, "s").is_unordered


class TestComprehensionsAndContainers:
    def test_set_comp_is_unordered(self):
        value = load_of("s = {f(x) for x in items}\nuse(s)\n", "s")
        assert value.is_unordered
        assert value.origin == "set comprehension"

    def test_list_comp_over_set_is_tainted(self):
        value = load_of("s = [f(x) for x in set(items)]\nuse(s)\n", "s")
        assert value.is_unordered

    def test_list_comp_over_list_is_ordered(self):
        value = load_of("s = [f(x) for x in [1, 2]]\nuse(s)\n", "s")
        assert value.ordered is Orderedness.ORDERED

    def test_comprehension_target_does_not_leak(self):
        # The comprehension's 'x' must not shadow the outer binding after.
        src = "x = [1]\ns = [x for x in set(items)]\nuse(x)\n"
        assert load_of(src, "x").ordered is Orderedness.ORDERED

    def test_dict_of_set_is_tainted(self):
        value = load_of("d = {'k': set(items)}\nuse(d)\n", "d")
        assert value.is_unordered

    def test_fstring_of_set_is_tainted(self):
        value = load_of("s = set(items)\nmsg = f'{s}'\nuse(msg)\n", "msg")
        assert value.is_unordered

    def test_dict_keys_values_follow_the_receiver(self):
        src = "d = {'k': set(items)}\nv = d.values()\nuse(v)\n"
        assert load_of(src, "v").is_unordered
        src = "d = {'k': [1]}\nv = d.values()\nuse(v)\n"
        assert load_of(src, "v").ordered is Orderedness.ORDERED


class TestUnitAlgebra:
    @pytest.mark.parametrize(
        "expr, unit",
        [
            ("span_km + tail_km", "km"),
            ("launch_dbm - loss_db", "dbm"),
            ("gain_db + launch_dbm", "dbm"),
            ("rx_dbm - tx_dbm", "db"),  # power ratio
            ("gain_db - loss_db", "db"),
            ("span_km + duration_s", None),  # conflict: R007's business
            ("span_km * 2", None),  # mult/div build new dimensions
            ("span_km / duration_s", None),
            ("span_km + offset", "km"),  # untagged operand inherits
        ],
    )
    def test_binop_units(self, expr, unit):
        value = value_at(f"y = {expr}\n", lambda t: t.body[0].value)
        assert value.unit == unit

    def test_min_max_propagate_a_single_unit(self):
        value = value_at(
            "y = min(span_km, limit_km)\n", lambda t: t.body[0].value
        )
        assert value.unit == "km"
        value = value_at(
            "y = min(span_km, duration_s)\n", lambda t: t.body[0].value
        )
        assert value.unit is None

    def test_unit_suffixed_call_tags_its_result(self):
        value = load_of("x = rtt_ms(path)\nuse(x)\n", "x")
        assert value.unit == "ms"


class TestScopesAndReturns:
    def test_function_scopes_are_independent(self):
        src = (
            "s = set(items)\n"
            "def f(s):\n"
            "    return use(s)\n"
        )
        tree = ast.parse(src)
        info = analyze_flow(tree)
        inner_load = tree.body[1].body[0].value.args[0]
        assert not info.value_of(inner_load).is_unordered

    def test_parameter_annotations_seed_the_env(self):
        src = "def f(s: set, l: list):\n    use(s)\n    use(l)\n"
        tree = ast.parse(src)
        info = analyze_flow(tree)
        s_load = tree.body[0].body[0].value.args[0]
        l_load = tree.body[0].body[1].value.args[0]
        assert info.value_of(s_load).is_unordered
        assert info.value_of(l_load).ordered is Orderedness.ORDERED

    def test_parameter_suffix_seeds_a_unit(self):
        src = "def f(span_km):\n    x = span_km\n    use(x)\n"
        tree = ast.parse(src)
        info = analyze_flow(tree)
        x_load = tree.body[0].body[1].value.args[0]
        assert info.value_of(x_load).unit == "km"

    def test_returns_are_collected_per_function(self):
        src = (
            "def f(a):\n"
            "    if a:\n        return span_km\n"
            "    return loss_db\n"
        )
        tree = ast.parse(src)
        info = analyze_flow(tree)
        func = tree.body[0]
        returned = [value.unit for _stmt, value in info.returns_of(func)]
        assert returned == ["km", "db"]

    def test_bare_return_is_a_scalar(self):
        tree = ast.parse("def f():\n    return\n")
        info = analyze_flow(tree)
        ((_stmt, value),) = info.returns_of(tree.body[0])
        assert value.ordered is Orderedness.ORDERED
        assert value.unit is None

    def test_unvisited_node_is_unknown(self):
        info = analyze_flow(ast.parse("x = 1\n"))
        assert info.value_of(ast.parse("y\n").body[0].value) is UNKNOWN_VALUE


class TestOrigins:
    def test_origin_survives_aliasing_for_messages(self):
        value = load_of("s = frozenset(items)\nt = s\nuse(t)\n", "t")
        assert value.origin == "frozenset(...)"
        assert "frozenset(...) bound at line 1" in value.describe()

    def test_describe_mentions_units(self):
        assert "'_km'" in AbstractValue(unit="km").describe()

    def test_describe_is_empty_for_unknown(self):
        assert UNKNOWN_VALUE.describe() == ""
