import json

import pytest

from fgmopt.errors import DimensionMismatch, GeneOutOfBounds, naming


class TestNaming:
    @pytest.mark.parametrize("error, kind", [
        (ValueError("bad value"), ValueError),
        (DimensionMismatch("bad value"), DimensionMismatch),
        (GeneOutOfBounds("bad value"), GeneOutOfBounds),
    ])
    def test_value_error_names_the_source_and_keeps_a_package_type(self, error, kind):
        with pytest.raises(ValueError) as info:
            with naming("m.json"):
                raise error
        assert type(info.value) is kind and str(info.value) == "m.json: bad value"

    def test_decode_errors_become_plain_value_errors(self):
        for source, read in (("a.json", lambda: json.loads("not json")),
                             ("b.json", lambda: b"\xff".decode())):
            with pytest.raises(ValueError) as info:
                with naming(source):
                    read()
            assert type(info.value) is ValueError
            assert str(info.value).startswith(f"{source}: ")

    def test_missing_key_is_named(self):
        with pytest.raises(ValueError, match=r"^train.ndjson:3: needs the key 'profile_x'$"):
            with naming("train.ndjson:3"):
                {}["profile_x"]

    def test_other_errors_pass_through(self):
        with pytest.raises(TypeError, match="^no$"):
            with naming("m.json"):
                raise TypeError("no")
