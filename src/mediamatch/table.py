"""The one CSV writer.  Each table declares beside its header a row template of
one %-conversion per column: '%.12g' for a float, '%s' for an int or text and
'%.10g' for a controller trace's rss_db."""


def table_text(header: str, line: str, columns) -> str:
    """CSV text of equal-length columns (a sequence of them) under a header:
    every row through the template `line`, by one ``%`` over all values."""
    n_rows = len(columns[0]) if len(columns) else 0
    flat = [None] * (len(columns) * n_rows)
    for k, column in enumerate(columns):
        flat[k::len(columns)] = column
    return header + "\n" + (line + "\n") * n_rows % tuple(flat)


def write_table(path, header: str, line: str, columns) -> str:
    """Write table_text(header, line, columns) to path, a pathlib.Path in an existing folder."""
    path.write_bytes(table_text(header, line, columns).encode())
    return str(path)
