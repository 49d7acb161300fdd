"""The words the command line and the files share: option values, format versions, report columns.

A leaf module: it imports nothing, so the command line can build its parser
and answer ``--version`` from these names alone. Every other module imports
them from here; ``spec``, ``store`` and ``record`` keep the ones they use,
so those documented import paths stay valid.
"""

HIGHER_IS_BONAFIDE = "higher-is-bonafide"
HIGHER_IS_SPOOF = "higher-is-spoof"
POLARITIES = (HIGHER_IS_BONAFIDE, HIGHER_IS_SPOOF)

PROTOCOL_FORMATS = ("two-column", "asvspoof")

JOIN_MODES = ("strict", "intersect")

ADDITIVE_CATEGORIES = ("noise", "music", "speech")
CATEGORIES = ADDITIVE_CATEGORIES + ("reverb",)
CLIP_POLICIES = ("peak-normalize", "hard-clip")

EMIT_FORMATS = ("markdown", "csv", "json")

RANK_KEYS = ("pooled_eer", "average_eer")

MANIFEST_VERSION = 1

RECORD_VERSION = 1

MAX_SCORER_TIMEOUT_S = 2_147_483  # the scorer is awaited by select.poll: whole ms in a C int

# A leaderboard report's fixed columns, each (csv name, markdown name); the csv name is
# the SystemSummary field it shows. The dataset columns, named by their dataset_id, sit
# between the optional and the summary columns, so no dataset_id may be one of these names.
ID_COLUMN = ("system_id", "System")
OPTIONAL_COLUMNS = (("category", "Category"), ("param_count_millions", "Params (M)"))
SUMMARY_COLUMNS = (("average_eer", "Average"), ("pooled_eer", "Pooled"))
# markdown appends this to the id of a system evaluated with dataset gaps
GAP_MARK = "*"

# Unicode categories Cc, Zl and Zp, which the standard keeps fixed: every str.splitlines break, tab, NUL
_ID_FORBIDDEN_CHARS = frozenset(map(chr, [*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029]))


def _encodes_as_utf8(text: str) -> bool:
    """False for a str holding a lone surrogate, which no UTF-8 output can carry."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def text_fault(text: str) -> str | None:
    """Why ``text`` cannot stand in one line of a UTF-8 report, or None if it can.

    The rule for every name a report or listing prints: no Cc, Zl or Zp
    character, and no lone surrogate.
    """
    if not _ID_FORBIDDEN_CHARS.isdisjoint(text):
        return "holds a control or line-break character"
    return None if _encodes_as_utf8(text) else "does not encode as UTF-8"
