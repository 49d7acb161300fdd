import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from df_arena.errors import JoinError, ManifestError, ProtocolError, ScoreFileError
from df_arena.protocol import (
    BONAFIDE,
    LABEL_ALIASES,
    SPOOF,
    ScoreSet,
    TrialSet,
    join,
    parse_protocol,
    parse_scores,
    serialize_protocol,
    serialize_scores,
)
from df_arena.spec import load_manifest

from conftest import build_arena, write_text


class TestParseProtocol:
    def test_minimal_two_column(self, tmp_path):
        p = write_text(tmp_path / "p.txt", "a1 bonafide\na2 spoof\n")
        ts = parse_protocol(p)
        assert len(ts.ids) == 2
        assert int(ts.is_bonafide.sum()) == 1
        assert (ts.ids[0], bool(ts.is_bonafide[0])) == ("a1", True)

    def test_duplicate_id_rejected(self, tmp_path):
        p = write_text(tmp_path / "p.txt", "a1 bonafide\na1 spoof\n")
        with pytest.raises(ProtocolError, match="duplicate"):
            parse_protocol(p)

    def test_unknown_label_rejected(self, tmp_path):
        p = write_text(tmp_path / "p.txt", "a1 bonafide\na2 weird\n")
        with pytest.raises(ProtocolError, match="line 2.*weird"):
            parse_protocol(p)

    def test_empty_file_rejected(self, tmp_path):
        p = write_text(tmp_path / "p.txt", "# only a comment\n\n")
        with pytest.raises(ProtocolError, match="empty"):
            parse_protocol(p)

    def test_single_class_rejected(self, tmp_path):
        p = write_text(tmp_path / "p.txt", "a1 bonafide\na2 bonafide\n")
        with pytest.raises(ProtocolError, match="spoof"):
            parse_protocol(p)

    def test_label_aliases_and_comments(self, tmp_path):
        p = write_text(tmp_path / "p.txt", "# header\na1 genuine\na2 FAKE\n\na3 1\na4 0\n")
        ts = parse_protocol(p)
        assert ts.is_bonafide.tolist() == [True, False, True, False]

    def test_asvspoof_five_column(self, tmp_path):
        # speaker, utterance id, codec, attack id, key
        p = write_text(
            tmp_path / "k.txt",
            "LA_0001 LA_E_001 - A07 spoof\nLA_0002 LA_E_002 - - bonafide\n",
        )
        ts = parse_protocol(p, format="asvspoof")
        assert ts.ids == ("LA_E_001", "LA_E_002")
        assert ts.is_bonafide.tolist() == [False, True]

    @pytest.mark.parametrize("tagged", ["a1 bonafide\na2 spoof A01\n", "a1 bonafide A02\na2 spoof A01\n"])
    def test_attack_tag_third_column(self, tmp_path, tagged):
        """The optional third token is accepted and not kept, off the serialisers' layout and in it."""
        plain = write_text(tmp_path / "plain.txt", "a1 bonafide\na2 spoof\n")
        ts = parse_protocol(write_text(tmp_path / "p.txt", tagged))
        assert ts == parse_protocol(plain)
        assert serialize_protocol(ts) == plain.read_text(encoding="utf-8")

    def test_unknown_format(self, tmp_path):
        p = write_text(tmp_path / "p.txt", "a1 bonafide\na2 spoof\n")
        with pytest.raises(ProtocolError, match="format"):
            parse_protocol(p, format="csv")


# Trial ids: mostly plain tokens, plus any text at all (whitespace, line
# breaks, a leading '#'), which the serialiser must refuse.
tokens = st.text("ABC0123#-_\u00e9", min_size=1, max_size=4) | st.text(
    st.characters(exclude_categories=("Cs",)), min_size=1, max_size=6
)


def _writable(token: str) -> bool:
    return token.split() == [token] and not token.startswith("#")


@given(ids=st.lists(tokens, min_size=2, max_size=8, unique=True), n_bona=st.integers(1, 7))
@settings(max_examples=150)
def test_two_column_round_trip(tmp_path_factory, ids, n_bona):
    n_bona = min(n_bona, len(ids) - 1)
    ts = TrialSet(tuple(ids), np.arange(len(ids)) < n_bona)
    if not all(map(_writable, ids)):
        with pytest.raises(ProtocolError, match="cannot be written"):
            serialize_protocol(ts)
        return
    path = tmp_path_factory.mktemp("rt") / "p.txt"
    path.write_text(serialize_protocol(ts), encoding="utf-8")
    assert parse_protocol(path) == ts


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.dictionaries(tokens, finite | finite.map(np.float64) | st.integers(-10**6, 10**6).map(np.int64),
                       max_size=8))
@settings(max_examples=150)
def test_score_round_trip(tmp_path_factory, mapping):
    ss = ScoreSet(mapping)
    if not all(map(_writable, mapping)):
        with pytest.raises(ScoreFileError, match="cannot be written"):
            serialize_scores(ss)
        return
    path = tmp_path_factory.mktemp("rt") / "s.txt"
    path.write_text(serialize_scores(ss), encoding="utf-8")
    parsed = parse_scores(path)
    expected = {k: float(v) for k, v in mapping.items()}
    assert parsed.scores == expected
    assert parsed == ScoreSet(expected)
    assert all(type(v) is float for v in parsed.scores.values())


def test_numpy_scores_serialize_as_plain_numbers():
    ss = ScoreSet({"t1": np.float64(0.5), "t2": np.float32(0.25)})
    assert serialize_scores(ss) == "t1 0.5\nt2 0.25\n"


class TestParseScores:
    def test_minimal(self, tmp_path):
        p = write_text(tmp_path / "s.txt", "a1 0.9\na2 -2.5\n")
        ss = parse_scores(p)
        assert ss.scores == {"a1": 0.9, "a2": -2.5}

    def test_scientific_notation(self, tmp_path):
        p = write_text(tmp_path / "s.txt", "a1 1e-3\na2 -2.5E2\n")
        assert parse_scores(p).scores["a2"] == -250.0

    # float() also reads '_' between digits and non-ASCII digits (Arabic-Indic, fullwidth)
    @pytest.mark.parametrize("token", ["1_0", "-1_000.5", "1e1_0", "\u0661\u0662", "\uff11\uff12", "1e\u0661"])
    @pytest.mark.parametrize("text, lineno", [("a 0.5\nb {}\n", 2), ("# scores\na\t0.5\n  b  {} ", 3)],
                             ids=["layout", "relaid"])
    def test_only_ascii_numbers_are_scores(self, tmp_path, token, text, lineno):
        p = write_text(tmp_path / "s.txt", text.format(token))
        with pytest.raises(ScoreFileError, match=_line_error(p, lineno) + re.escape(f" non-numeric score {token!r}")):
            parse_scores(p)

    def test_non_numeric_names_line(self, tmp_path):
        p = write_text(tmp_path / "s.txt", "a1 abc\n")
        with pytest.raises(ScoreFileError, match="line 1"):
            parse_scores(p)

    def test_nan_rejected(self, tmp_path):
        p = write_text(tmp_path / "s.txt", "a1 nan\n")
        with pytest.raises(ScoreFileError, match="non-finite"):
            parse_scores(p)

    def test_inf_rejected(self, tmp_path):
        p = write_text(tmp_path / "s.txt", "a1 inf\n")
        with pytest.raises(ScoreFileError, match="non-finite"):
            parse_scores(p)

    def test_duplicate_rejected(self, tmp_path):
        p = write_text(tmp_path / "s.txt", "a1 0.9\na1 0.8\n")
        with pytest.raises(ScoreFileError, match="duplicate"):
            parse_scores(p)

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = write_text(tmp_path / "s.txt", "# system: demo\n\na1 0.9\n")
        assert parse_scores(p).scores == {"a1": 0.9}

    def test_missing_file_is_score_error(self, tmp_path):
        with pytest.raises(ScoreFileError, match="not found"):
            parse_scores(tmp_path / "nope.txt")

    def test_directory_is_score_error(self, tmp_path):
        with pytest.raises(ScoreFileError, match="cannot read"):
            parse_scores(tmp_path)


# str.splitlines() ends a line at each of these as well; a file's lines end only at
# '\n', '\r\n' or a lone '\r'.
SPLITLINES_BREAKS = ["\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]


@pytest.mark.parametrize("char", SPLITLINES_BREAKS)
def test_line_numbers_count_newlines_only(tmp_path, char):
    protocol = write_text(tmp_path / "p.txt", f"t1 bonafide{char}\nt2 weird\n")
    with pytest.raises(ProtocolError, match=_line_error(protocol, 2)):
        parse_protocol(protocol)
    scores = write_text(tmp_path / "s.txt", f"t1 0.5{char}\nt2 x\n")
    with pytest.raises(ScoreFileError, match=_line_error(scores, 2)):
        parse_scores(scores)


@pytest.mark.parametrize("end", ["\r", "\r\n"])
def test_a_carriage_return_ends_a_line(tmp_path, end):
    protocol = write_text(tmp_path / "p.txt", f"t1 bonafide{end}t2 spoof\nt3 weird\n")
    with pytest.raises(ProtocolError, match=_line_error(protocol, 3) + " unknown label token 'weird'"):
        parse_protocol(protocol)
    scores = write_text(tmp_path / "s.txt", f"t1 0.5{end}t2 0.25\nt3 x\n")
    with pytest.raises(ScoreFileError, match=_line_error(scores, 3) + " non-numeric score 'x'"):
        parse_scores(scores)


def test_directory_protocol_is_protocol_error(tmp_path):
    with pytest.raises(ProtocolError, match="cannot read"):
        parse_protocol(tmp_path)


def _trials(*pairs):
    return TrialSet(tuple(t for t, _ in pairs), np.array([label == BONAFIDE for _, label in pairs]))


def _scores(mapping):
    return ScoreSet(dict(mapping))


class TestJoin:
    def test_strict_exact(self):
        ts = _trials(("a1", BONAFIDE), ("a2", SPOOF))
        res = join(ts, _scores({"a1": 1.0, "a2": 0.0}))
        assert res.rows == ((BONAFIDE, 1.0), (SPOOF, 0.0))
        assert res.dropped_trials == 0

    def test_strict_missing(self):
        ts = _trials(("a1", BONAFIDE), ("a2", SPOOF))
        with pytest.raises(JoinError, match="missing: a2"):
            join(ts, _scores({"a1": 1.0}))

    def test_strict_extra(self):
        ts = _trials(("a1", BONAFIDE), ("a2", SPOOF))
        with pytest.raises(JoinError, match="^strict join failed; extra: a3$"):
            join(ts, _scores({"a1": 1.0, "a2": 0.0, "a3": 0.5}))

    def test_strict_error_lists_at_most_ten(self):
        ts = _trials(*((f"m{i:02d}", BONAFIDE) for i in range(24)), ("s0", SPOOF))
        with pytest.raises(JoinError, match=r"\+14 more"):
            join(ts, _scores({"s0": 0.0}))

    def test_intersect_counts_drops(self):
        ts = _trials(("a1", BONAFIDE), ("a2", SPOOF), ("a3", SPOOF))
        res = join(ts, _scores({"a1": 1.0, "a2": 0.0, "zz": 9.0}), mode="intersect")
        assert res.rows == ((BONAFIDE, 1.0), (SPOOF, 0.0))
        assert res.dropped_trials == 1
        assert res.dropped_scores == 1

    def test_polarity_negates(self):
        ts = _trials(("a1", BONAFIDE), ("a2", SPOOF))
        res = join(ts, _scores({"a1": 0.9, "a2": 0.1}), polarity="higher-is-spoof")
        assert res.rows == ((BONAFIDE, -0.9), (SPOOF, -0.1))

    @pytest.mark.parametrize("option, value, allowed", [
        ("mode", "outer", "('strict', 'intersect')"),
        ("polarity", "higher-is-real", "('higher-is-bonafide', 'higher-is-spoof')"),
    ])
    def test_unknown_option_names_the_allowed_values(self, option, value, allowed):
        ts = _trials(("a1", BONAFIDE), ("a2", SPOOF))
        with pytest.raises(ValueError, match=re.escape(f"{value!r}; expected one of {allowed}")):
            join(ts, _scores({"a1": 1.0, "a2": 0.0}), **{option: value})


score_maps = st.dictionaries(
    st.text("abcdef123", min_size=1, max_size=6),
    st.floats(-100, 100, allow_nan=False),
    min_size=2,
    max_size=12,
)


@given(score_maps, st.randoms())
@settings(max_examples=50)
def test_join_order_insensitive(mapping, rnd):
    ids = list(mapping)
    ts = _trials(*((t, BONAFIDE if i % 2 == 0 else SPOOF) for i, t in enumerate(ids)),
                 ("_pad_b", BONAFIDE), ("_pad_s", SPOOF))
    full = dict(mapping, _pad_b=1.0, _pad_s=0.0)
    shuffled = list(full.items())
    rnd.shuffle(shuffled)
    a = join(ts, _scores(dict(full)))
    b = join(ts, _scores(dict(shuffled)))
    assert sorted(a.rows) == sorted(b.rows)


@given(score_maps)
@settings(max_examples=50)
def test_polarity_negation_is_involution(mapping):
    ids = list(mapping)
    ts = _trials(*((t, BONAFIDE if i % 2 == 0 else SPOOF) for i, t in enumerate(ids)),
                 ("_pad_b", BONAFIDE), ("_pad_s", SPOOF))
    full = dict(mapping, _pad_b=1.0, _pad_s=0.0)
    negated = {k: -v for k, v in full.items()}
    direct = join(ts, _scores(full), polarity="higher-is-bonafide")
    via_spoof = join(ts, _scores(negated), polarity="higher-is-spoof")
    assert direct.rows == via_spoof.rows


class TestManifest:
    def test_loads_and_resolves_paths(self, tmp_path):
        manifest = load_manifest(build_arena(tmp_path))
        assert [d.dataset_id for d in manifest.datasets] == ["d1", "d2", "d3"]
        assert len(manifest.systems) == 3
        assert manifest.datasets[0].protocol_path.is_file()
        assert len(manifest.digest) == 64
        sys_b = manifest.systems[1]
        assert sys_b.polarity == "higher-is-spoof"
        assert sys_b.param_count_millions == 98.9

    def test_bom_manifest_loads_and_its_digest_hashes_the_raw_bytes(self, tmp_path):
        plain = build_arena(tmp_path)
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        manifest = load_manifest(bom)
        assert manifest.datasets == load_manifest(plain).datasets
        assert manifest.digest == hashlib.sha256(bom.read_bytes()).hexdigest()

    def test_score_for_undeclared_dataset(self, tmp_path):
        build_arena(tmp_path)
        import json

        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["systems"][0]["scores"]["ghost"] = "scores/none.txt"
        write_text(tmp_path / "bad.json", json.dumps(doc))
        with pytest.raises(ManifestError, match="undeclared dataset 'ghost'"):
            load_manifest(tmp_path / "bad.json")

    def test_gap_without_permission(self, tmp_path):
        build_arena(tmp_path)
        import json

        doc = json.loads((tmp_path / "manifest.json").read_text())
        del doc["systems"][0]["scores"]["d2"]
        write_text(tmp_path / "bad.json", json.dumps(doc))
        with pytest.raises(ManifestError, match="no scores for"):
            load_manifest(tmp_path / "bad.json")

    def test_gap_with_allow_gaps(self, tmp_path):
        build_arena(tmp_path)
        import json

        doc = json.loads((tmp_path / "manifest.json").read_text())
        del doc["systems"][0]["scores"]["d2"]
        doc["options"]["allow_gaps"] = True
        write_text(tmp_path / "ok.json", json.dumps(doc))
        manifest = load_manifest(tmp_path / "ok.json")
        assert manifest.allow_gaps
        assert "d2" not in manifest.systems[0].score_paths

    def test_missing_polarity_rejected(self, tmp_path):
        build_arena(tmp_path)
        import json

        doc = json.loads((tmp_path / "manifest.json").read_text())
        del doc["options"]["default_polarity"]
        write_text(tmp_path / "bad.json", json.dumps(doc))
        with pytest.raises(ManifestError, match="polarity is never guessed"):
            load_manifest(tmp_path / "bad.json")

    def test_duplicate_system_rejected(self, tmp_path):
        build_arena(tmp_path)
        import json

        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["systems"].append(doc["systems"][0])
        write_text(tmp_path / "bad.json", json.dumps(doc))
        with pytest.raises(ManifestError, match="duplicate system_id"):
            load_manifest(tmp_path / "bad.json")

    def test_wrong_version_rejected(self, tmp_path):
        write_text(tmp_path / "bad.json", '{"manifest_version": 99}')
        with pytest.raises(ManifestError, match="manifest_version"):
            load_manifest(tmp_path / "bad.json")


def _system(**fields):
    return lambda doc: doc["systems"][0].update(fields)


def _options(**fields):
    return lambda doc: doc["options"].update(fields)


@pytest.mark.parametrize("mutate, message", [
    pytest.param(lambda doc: doc.update(datasets={d["dataset_id"]: d for d in doc["datasets"]}),
                 "datasets must be a list of objects", id="datasets-object"),
    pytest.param(lambda doc: doc["datasets"].__setitem__(1, "d2"),
                 "datasets must be a list of objects", id="dataset-entry-string"),
    pytest.param(lambda doc: doc["systems"].append(["sysD"]),
                 "systems must be a list of objects", id="system-entry-list"),
    pytest.param(lambda doc: doc["datasets"][0].update(protocol_path=5),
                 "protocol_path must be a non-empty string", id="protocol-path-int"),
    pytest.param(lambda doc: doc["datasets"][0].pop("protocol_path"),
                 "protocol_path must be a non-empty string", id="protocol-path-missing"),
    pytest.param(lambda doc: doc["datasets"][0].update(protocol_path="p\0.txt"),
                 "protocol_path holds a NUL byte", id="protocol-path-nul"),
    pytest.param(lambda doc: doc["systems"][0]["scores"].update(d1=["scores/sysA_d1.txt"]),
                 "score path for 'd1' must be a non-empty string", id="score-path-list"),
    pytest.param(lambda doc: doc["systems"][0]["scores"].update(d1="scores/\0.txt"),
                 "score path for 'd1' holds a NUL byte", id="score-path-nul"),
    pytest.param(_system(param_count_millions="big"), "param_count_millions must be a number", id="params-string"),
    pytest.param(_system(param_count_millions=True), "param_count_millions must be a number", id="params-bool"),
    pytest.param(_system(param_count_millions=10**400), "param_count_millions must be a number", id="params-huge"),
    pytest.param(_system(param_count_millions=math.nan), "param_count_millions must be a number", id="params-nan"),
    pytest.param(_system(param_count_millions=-math.inf), "param_count_millions must be a number", id="params-inf"),
    pytest.param(_system(category=7), "category must be a string", id="category-int"),
    pytest.param(_options(allow_gaps="no"), "allow_gaps must be true or false", id="allow-gaps-string"),
    pytest.param(_options(allow_gaps=0), "allow_gaps must be true or false", id="allow-gaps-int"),
    pytest.param(_options(output_dir=3), "output_dir must be a non-empty string", id="output-dir-int"),
    pytest.param(_options(output_dir=False), "output_dir must be a non-empty string", id="output-dir-false"),
    pytest.param(_options(output_dir=0), "output_dir must be a non-empty string", id="output-dir-zero"),
    pytest.param(_options(output_dir=""), "output_dir must be a non-empty string", id="output-dir-empty"),
    pytest.param(_options(output_dir=[]), "output_dir must be a non-empty string", id="output-dir-empty-list"),
    pytest.param(_options(output_dir="out\0"), "output_dir holds a NUL byte", id="output-dir-nul"),
    pytest.param(lambda doc: doc["datasets"][0].update(dataset_id="d\ud800"),
                 "dataset_id " + repr("d\ud800") + " does not encode as UTF-8", id="dataset-id-surrogate"),
    pytest.param(lambda doc: doc["systems"][0].update(system_id="\udcffsys"),
                 "system_id " + repr("\udcffsys") + " does not encode as UTF-8", id="system-id-surrogate"),
    pytest.param(_system(category="open\ud800"),
                 "system 'sysA': category " + repr("open\ud800") + " does not encode as UTF-8",
                 id="category-surrogate"),
    pytest.param(lambda doc: doc["datasets"][0].update(protocol_path="p\ud800.txt"),
                 "dataset 'd1': protocol_path does not encode as UTF-8: " + repr("p\ud800.txt"),
                 id="protocol-path-surrogate"),
    pytest.param(lambda doc: doc["systems"][0]["scores"].update(d1="\udcff.txt"),
                 "score path for 'd1' does not encode as UTF-8: " + repr("\udcff.txt"), id="score-path-surrogate"),
    pytest.param(_options(output_dir="out\ud800"),
                 "options.output_dir does not encode as UTF-8: " + repr("out\ud800"), id="output-dir-surrogate"),
    pytest.param(lambda doc: doc.update(manifest_version=True), "manifest_version must be 1", id="version-bool"),
    pytest.param(lambda doc: doc.update(manifest_version=1.0), "manifest_version must be 1", id="version-float"),
])
def test_wrong_typed_manifest_field_is_manifest_error(tmp_path, mutate, message):
    doc = json.loads(build_arena(tmp_path).read_text())
    mutate(doc)
    bad = write_text(tmp_path / "bad.json", json.dumps(doc))
    with pytest.raises(ManifestError, match=re.escape(str(bad)) + ".*" + re.escape(message)):
        load_manifest(bad)


@pytest.mark.parametrize("kind", ["dataset", "system"])
@pytest.mark.parametrize("char", ["\n", "\r", "\x85", "\u2028"])
def test_id_with_a_line_break_is_manifest_error(tmp_path, kind, char):
    doc = json.loads(build_arena(tmp_path).read_text())
    bad_id = f"d{char}x"
    doc[f"{kind}s"][0][f"{kind}_id"] = bad_id
    bad = write_text(tmp_path / "bad.json", json.dumps(doc))
    with pytest.raises(ManifestError, match=re.escape(f"{bad}: {kind}_id {bad_id!r} holds a control")):
        load_manifest(bad)


@pytest.mark.parametrize("char", ["\n", "\r", "\x85", "\u2028"])
def test_category_with_a_line_break_is_manifest_error(tmp_path, char):
    doc = json.loads(build_arena(tmp_path).read_text())
    category = f"open{char}source"
    doc["systems"][0]["category"] = category
    bad = write_text(tmp_path / "bad.json", json.dumps(doc))
    named = re.escape(f"{bad}: system ") + ".*" + re.escape(f"category {category!r} holds a control")
    with pytest.raises(ManifestError, match=named):
        load_manifest(bad)


def test_manifest_directory_is_manifest_error(tmp_path):
    with pytest.raises(ManifestError, match=re.escape(str(tmp_path))):
        load_manifest(tmp_path)


# Fuzzing: malformed input of any kind must fail as the parser's own
# ArenaError subclass naming the file, never as a bare Python exception.

_PARSERS = (
    (parse_protocol, ProtocolError),
    (lambda p: parse_protocol(p, format="asvspoof"), ProtocolError),
    (parse_scores, ScoreFileError),
    (load_manifest, ManifestError),
)

# Fragments that reach past UTF-8 decoding and tokenising into the checks.
_fragments = st.sampled_from([
    "t1", "t2", "bonafide", "spoof", "Fake", "-", "0.5", "-3e2", "nan", "inf", "1e999", "x",
    "#", " ", "\t", "\n", "\r\n", "\x0c", "\u2028", "\u00e9", "{", "}", "[", "]", '"', ":", ",",
])


@given(st.binary(max_size=300) | st.lists(_fragments, max_size=60).map(lambda f: "".join(f).encode("utf-8")))
@settings(max_examples=300)
def test_random_input_raises_only_the_parser_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"
    path.write_bytes(data)
    for parse, error_cls in _PARSERS:
        try:
            parse(path)
        except error_cls as e:
            assert str(path) in str(e)


_ALIASES = {k.lower() for k in LABEL_ALIASES}
_ids = st.lists(st.from_regex(r"[A-Za-z0-9_.-]{1,8}", fullmatch=True), min_size=2, max_size=10, unique=True)
_printable = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8)
_bad_label = _printable.filter(lambda t: t.lower() not in _ALIASES)


def _not_a_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return True
    return False


def _line_error(path, lineno):
    return re.escape(f"{path}: line {lineno}:")


@st.composite
def _mutated_protocol(draw, fmt):
    """A valid protocol with one bad line; returns (text, 1-based line of the bad line)."""
    two_column = fmt == "two-column"
    id_at, label_at = (0, 1) if two_column else (1, -1)
    rows = []
    for trial_id in draw(_ids):
        label = draw(st.sampled_from(sorted(_ALIASES)))
        if two_column:
            rows.append([trial_id, label] + draw(st.lists(_printable, max_size=1)))
        else:
            rows.append(["SPK", trial_id, "-", draw(st.sampled_from(["-", "A01", "A17"])), label])
    k = draw(st.integers(0, len(rows) - 1))
    kind = draw(st.sampled_from(["drop", "extra", "label", "duplicate"] if k else ["drop", "extra", "label"]))
    if kind == "drop":
        rows[k] = rows[k][:draw(st.integers(1, 1 if two_column else 4))]
    elif kind == "extra" and two_column:
        rows[k] = rows[k][:2] + draw(st.lists(_printable, min_size=2, max_size=4))
    elif kind == "extra":
        rows[k].append(draw(_bad_label))  # the last column is the label
    elif kind == "label":
        rows[k][label_at] = draw(_bad_label)
    else:
        rows[k][id_at] = rows[draw(st.integers(0, k - 1))][id_at]
    prefix = draw(st.lists(st.sampled_from(["", "# header", "   "]), max_size=3))
    lines = prefix + [" ".join(r) for r in rows]
    return "\n".join(lines) + "\n", len(prefix) + k + 1


@pytest.mark.parametrize("fmt", ["two-column", "asvspoof"])
@given(data=st.data())
@settings(max_examples=150)
def test_mutated_protocol_names_the_bad_line(tmp_path_factory, fmt, data):
    text, lineno = data.draw(_mutated_protocol(fmt))
    path = tmp_path_factory.mktemp("fuzz") / "p.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ProtocolError, match=_line_error(path, lineno)):
        parse_protocol(path, format=fmt)


@st.composite
def _mutated_scores(draw):
    """A valid score file with one bad line; returns (text, 1-based line of the bad line)."""
    ids = draw(_ids)
    rows = [[trial_id, repr(draw(finite))] for trial_id in ids]
    k = draw(st.integers(0, len(rows) - 1))
    kind = draw(st.sampled_from(["drop", "extra", "non-numeric", "non-finite", "duplicate"] if k
                                else ["drop", "extra", "non-numeric", "non-finite"]))
    if kind == "drop":
        rows[k] = rows[k][:1]
    elif kind == "extra":
        rows[k] = rows[k] + draw(st.lists(_printable, min_size=1, max_size=3))
    elif kind == "non-numeric":
        rows[k][1] = draw(_printable.filter(_not_a_float))
    elif kind == "non-finite":
        rows[k][1] = draw(st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "1e999", "-1e400"]))
    else:
        rows[k][0] = rows[draw(st.integers(0, k - 1))][0]
    prefix = draw(st.lists(st.sampled_from(["", "# scores", "   "]), max_size=3))
    lines = prefix + [" ".join(r) for r in rows]
    return "\n".join(lines) + "\n", len(prefix) + k + 1


@given(data=_mutated_scores())
@settings(max_examples=150)
def test_mutated_scores_name_the_bad_line(tmp_path_factory, data):
    text, lineno = data
    path = tmp_path_factory.mktemp("fuzz") / "s.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ScoreFileError, match=_line_error(path, lineno)):
        parse_scores(path)


@st.composite
def _relaid(draw, rows):
    """The rows as text with any whitespace between and around tokens, blank and '#' lines among them."""
    gap = st.sampled_from([" ", "  ", "\t", " \t", "\x0c"])
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(["", "   ", "# note", "\t# note"]), max_size=1))
        text = "".join(tok + draw(gap) for tok in row[:-1]) + row[-1]
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " "])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


def _write_both(tmp, text_of, rows):
    """(a file in the serialisers' layout, the same rows relaid)."""
    a, b = tmp / "a.txt", tmp / "b.txt"
    a.write_text("".join(" ".join(r) + "\n" for r in rows), encoding="utf-8")
    b.write_bytes(text_of(_relaid(rows)).encode("utf-8"))
    return a, b


@given(data=st.data())
@settings(max_examples=150)
def test_layout_does_not_change_the_parse(tmp_path_factory, data):
    """Text in the serialisers' layout is read column by column, other text line by line; both agree."""
    tmp = tmp_path_factory.mktemp("layout")
    ids = data.draw(_ids)
    aliases = st.lists(st.sampled_from(sorted(_ALIASES)), min_size=len(ids) - 2, max_size=len(ids) - 2)
    labels = [BONAFIDE, SPOOF] + data.draw(aliases)
    tag = st.sampled_from(["A01", "A17"])
    rows = [[t, label] + data.draw(st.lists(tag, max_size=1)) for t, label in zip(ids, labels)]
    a, b = _write_both(tmp, data.draw, rows)
    assert parse_protocol(b) == parse_protocol(a)
    rows = [["SPK", t, "-", data.draw(st.sampled_from(["-", "A01"])), label] for t, label in zip(ids, labels)]
    a, b = _write_both(tmp, data.draw, rows)
    assert parse_protocol(b, "asvspoof") == parse_protocol(a, "asvspoof")
    rows = [[t, repr(data.draw(finite))] for t in ids]
    a, b = _write_both(tmp, data.draw, rows)
    assert parse_scores(b).scores == parse_scores(a).scores == {t: float(v) for t, v in rows}


_BASE_MANIFEST = {
    "manifest_version": 1,
    "options": {"default_polarity": "higher-is-bonafide", "join_mode": "strict", "allow_gaps": False,
                "output_dir": "out"},
    "datasets": [{"dataset_id": "d1", "protocol_path": "d1.txt", "format": "two-column"},
                 {"dataset_id": "d2", "protocol_path": "d2.txt"}],
    "systems": [{"system_id": "sysA", "param_count_millions": 1.5, "category": "open-source",
                 "polarity": "higher-is-spoof", "scores": {"d1": "a1.txt", "d2": "a2.txt"}},
                {"system_id": "sysB", "scores": {"d1": "b1.txt", "d2": "b2.txt"}}],
}


def _locations(node, here=()):
    yield here
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _locations(child, here + (key,))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_DEEP = "__deep__"


@given(
    where=st.sampled_from(list(_locations(_BASE_MANIFEST))[1:]),
    value=_json_values | st.just(10**400) | st.just(_DEEP) | st.just(KeyError),
)
@example(where=("systems", 0, "param_count_millions"), value=10**400)
@example(where=("options",), value=_DEEP)
@settings(max_examples=300)
def test_mutated_manifest_raises_only_manifest_error(tmp_path_factory, where, value):
    doc = json.loads(json.dumps(_BASE_MANIFEST))
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if value is KeyError:
        del parent[where[-1]]
    else:
        parent[where[-1]] = value
    text = json.dumps(doc).replace(json.dumps(_DEEP), "[" * 100_000 + "]" * 100_000)
    path = tmp_path_factory.mktemp("fuzz") / "manifest.json"
    path.write_text(text, encoding="utf-8")
    try:
        load_manifest(path)
    except ManifestError as e:
        assert str(path) in str(e)


def test_deeply_nested_manifest_is_manifest_error(tmp_path):
    path = write_text(tmp_path / "deep.json", "[" * 200_000)
    with pytest.raises(ManifestError, match=re.escape(f"{path}: not valid JSON")):
        load_manifest(path)
