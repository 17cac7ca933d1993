"""Hypothesis strategies that damage valid input files: small CSV data files
and model checkpoints. Shared by the library and the CLI property tests."""

from hypothesis import strategies as st

from caplab.nn import init_mlp, model_to_dict

# A valid headerless data file: two feature columns, then the label.
CSV_ROWS = [["0.25", "-1.5", "0"], ["1e-3", "2", "1"], ["3", "0.5", "2"], ["-0.75", "4", "1"]]

SPECIAL_CELLS = st.sampled_from(
    ["", " ", "0", "-0", "7", "-1", "2.5", "1e308", "-1e308", "1e309", "nan", "inf", "-inf",
     "5e-324", str(2**63), str(2**64), "1" * 30, "0x10", "1_0", "abc", '"', "\x00", "\ufeff1"]
)
CELLS = st.one_of(
    SPECIAL_CELLS, SPECIAL_CELLS, st.text(alphabet='0123456789.-+eE ,"\n\r\tx\x00', max_size=6)
)


@st.composite
def csv_files(draw):
    """The bytes of CSV_ROWS after 1-3 edits: a cell replaced, dropped or
    added, or a row dropped or added; sometimes behind a byte-order mark or
    an invalid UTF-8 byte."""
    rows = [list(row) for row in CSV_ROWS]
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["cell"] * 4 + ["drop_cell", "add_cell", "drop_row", "add_row"]))
        i = draw(st.integers(0, len(rows)))
        if edit == "add_row":
            rows.insert(i, draw(st.lists(CELLS, max_size=4)))
        elif i < len(rows) and edit == "drop_row":
            del rows[i]
        elif i < len(rows):
            row = rows[i]
            j = draw(st.integers(0, len(row)))
            if edit == "add_cell":
                row.insert(j, draw(CELLS))
            elif j < len(row) and edit == "drop_cell":
                del row[j]
            elif j < len(row):
                row[j] = draw(CELLS)
    prefix = draw(st.sampled_from([b"", b"", b"", b"\xef\xbb\xbf", b"\xff"]))
    return prefix + "".join(",".join(row) + "\n" for row in rows).encode("utf-8")


JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 2**70)
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["relu", "identity"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """The key path of every node in a JSON document, the root first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def checkpoint_docs(draw):
    """A checkpoint document of a 2-4-3 model, or of a model of other
    widths, after 0-3 edits: a node replaced by any JSON value, or deleted."""
    dims = draw(st.one_of(st.just([2, 4, 3]), st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    doc = model_to_dict(init_mlp(0, dims))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(JSON)
        else:
            del parent[path[-1]]
    return doc
