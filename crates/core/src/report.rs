//! The report model: one [`Table`] per grid the toolkit prints, rendered by
//! one of three writers.
//!
//! A table is a key, a title and typed [`Column`]s over rows. Each column
//! holds a JSON key, a text header, a width, an alignment, a precision and
//! the function that reads its [`Cell`] from a row, so a grid's fields are
//! listed once: [`Table::text`] prints the fixed-width text of `repro`,
//! `run` and `analyze`, [`Table::markdown`] the pipe tables of the ingest
//! report, and [`Table::json`] the rows of the `--json` documents.
//! DESIGN.md §15 lists which output uses which writer.

use crate::json::Json;
use std::fmt::{self, Display, Write};

/// One typed cell.
#[derive(Clone)]
pub(crate) enum Cell {
    /// Text, printed as is.
    Str(String),
    /// A count.
    Int(u64),
    /// A share: its column's precision in text, full in JSON.
    Float(f64),
    /// A flag: `yes`/`no` in text, `true`/`false` in JSON.
    Bool(bool),
}

/// A text cell holding `value`'s display form.
pub(crate) fn text(value: impl Display) -> Cell {
    Cell::Str(value.to_string())
}

impl Cell {
    /// The cell in text, a float at `precision` digits.
    fn into_text(self, precision: usize) -> String {
        match self {
            Cell::Str(s) => s,
            Cell::Int(n) => n.to_string(),
            Cell::Float(v) => format!("{v:.precision$}"),
            Cell::Bool(b) => String::from(if b { "yes" } else { "no" }),
        }
    }

    /// The cell as a JSON value.
    pub(crate) fn into_json(self) -> Json {
        match self {
            Cell::Str(s) => Json::Str(s),
            Cell::Int(n) => Json::u(n),
            Cell::Float(v) => Json::Num(v),
            Cell::Bool(b) => Json::Bool(b),
        }
    }
}

/// Appends formatted text to `out`.
fn put(out: &mut String, text: fmt::Arguments) {
    out.write_fmt(text)
        .expect("writing to a String cannot fail");
}

/// One typed column over rows of type `R`.
pub(crate) struct Column<R> {
    /// Key in a JSON row ("" for a column the JSON omits).
    key: &'static str,
    /// Header in text ("" for a column the text omits).
    header: &'static str,
    /// Header in markdown ("" for a column the markdown omits).
    md: &'static str,
    /// Text between this column and the one before it.
    sep: &'static str,
    /// Left-aligned (markdown `---`), else right-aligned (`---:`).
    left: bool,
    /// Padded width in text (0: unpadded).
    width: usize,
    /// Digits after the point of a [`Cell::Float`] in text.
    precision: usize,
    /// Reads the column's cell from a row.
    cell: fn(&R) -> Cell,
}

/// A column: its JSON key, its text header (the markdown header too, unless
/// [`Column::md`] sets another) and a format spec — `<` or `>`, the padded
/// width (none: unpadded), and for floats `.` and the precision. Columns
/// are constants, so a malformed spec fails the build.
pub(crate) const fn col<R>(
    key: &'static str,
    header: &'static str,
    spec: &'static str,
    cell: fn(&R) -> Cell,
) -> Column<R> {
    let spec = spec.as_bytes();
    assert!(
        spec[0] == b'<' || spec[0] == b'>',
        "spec starts with < or >"
    );
    let (mut i, mut width, mut precision) = (1, 0, 0);
    while i < spec.len() && spec[i] != b'.' {
        assert!(spec[i].is_ascii_digit(), "width is decimal");
        width = width * 10 + (spec[i] - b'0') as usize;
        i += 1;
    }
    while i + 1 < spec.len() {
        i += 1;
        assert!(spec[i].is_ascii_digit(), "precision is decimal");
        precision = precision * 10 + (spec[i] - b'0') as usize;
    }
    let left = spec[0] == b'<';
    let (md, sep) = (header, " ");
    Column {
        key,
        header,
        md,
        sep,
        left,
        width,
        precision,
        cell,
    }
}

impl<R> Column<R> {
    /// The column under another markdown header.
    pub(crate) const fn md(self, md: &'static str) -> Column<R> {
        Column { md, ..self }
    }

    /// The column, set off from the one before it by `sep` in text.
    pub(crate) const fn sep(self, sep: &'static str) -> Column<R> {
        Column { sep, ..self }
    }

    /// Writes `value` padded to `width` on the column's side.
    fn pad(&self, out: &mut String, width: usize, value: impl Display) {
        if self.left {
            put(out, format_args!("{value:<width$}"));
        } else {
            put(out, format_args!("{value:>width$}"));
        }
    }

    /// The column's cell of `row` in text.
    fn text(&self, row: &R) -> String {
        (self.cell)(row).into_text(self.precision)
    }
}

/// A grid: its key in a JSON document, the title line of its text ("" for
/// none), and its typed columns.
pub(crate) struct Table<R: 'static> {
    pub key: &'static str,
    pub title: &'static str,
    pub columns: &'static [Column<R>],
}

impl<R> Table<R> {
    /// The columns the text (or the markdown) shows.
    fn shown(&self, markdown: bool) -> impl Iterator<Item = &Column<R>> {
        let header = move |c: &&Column<R>| if markdown { c.md } else { c.header };
        self.columns.iter().filter(move |c| !header(c).is_empty())
    }

    /// One fixed-width line, indented by `indent` into its first column.
    fn line<D: Display>(&self, out: &mut String, indent: usize, value: impl Fn(&Column<R>) -> D) {
        put(out, format_args!("{:indent$}", ""));
        for (i, c) in self.shown(false).enumerate() {
            let width = match i {
                0 => c.width.saturating_sub(indent),
                _ => {
                    out.push_str(c.sep);
                    c.width
                }
            };
            c.pad(out, width, value(c));
        }
        out.push('\n');
    }

    /// The fixed-width text: title, header and one line per row.
    pub(crate) fn text(&self, rows: &[R]) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            put(&mut out, format_args!("{}\n", self.title));
        }
        self.line(&mut out, 0, |c| c.header);
        self.rows_text(&mut out, rows, 0);
        out
    }

    /// Appends one fixed-width line per row, indented by `indent`.
    pub(crate) fn rows_text(&self, out: &mut String, rows: &[R], indent: usize) {
        for row in rows {
            self.line(out, indent, |c| c.text(row));
        }
    }

    /// The text with rows and columns swapped: the title, a line of each
    /// row's first cell, then per further column its header padded to
    /// `label_width` and its cells.
    pub(crate) fn transposed_text(&self, rows: &[R], label_width: usize) -> String {
        let mut out = format!("{}\n{:label_width$}", self.title, "");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                put(&mut out, format_args!("{:<label_width$}", c.header));
            }
            for row in rows {
                c.pad(&mut out, c.width, c.text(row));
            }
            out.push('\n');
        }
        out
    }

    /// The markdown pipe table.
    pub(crate) fn markdown(&self, rows: &[R]) -> String {
        let mut out = String::from("|");
        for c in self.shown(true) {
            put(&mut out, format_args!(" {} |", c.md));
        }
        out.push_str("\n|");
        for c in self.shown(true) {
            out.push_str(if c.left { "---|" } else { "---:|" });
        }
        for row in rows {
            out.push_str("\n|");
            for c in self.shown(true) {
                put(&mut out, format_args!(" {} |", c.text(row)));
            }
        }
        out.push('\n');
        out
    }

    /// The rows as an array of JSON objects.
    pub(crate) fn json(&self, rows: &[R]) -> Json {
        let keyed: Vec<_> = self.columns.iter().filter(|c| !c.key.is_empty()).collect();
        let object = |row: &R| {
            let pairs = keyed
                .iter()
                .map(|c| (c.key.to_string(), (c.cell)(row).into_json()));
            Json::Obj(pairs.collect())
        };
        Json::Arr(rows.iter().map(object).collect())
    }

    /// The rows as the `(key, array)` entry of a JSON document.
    pub(crate) fn entry(&self, rows: &[R]) -> (&'static str, Json) {
        (self.key, self.json(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row of the test grid: name, count, share, flag.
    type Row = (&'static str, u64, f64, bool);

    const GRID: Table<Row> = Table {
        key: "grid",
        title: "Grid",
        columns: &[
            col("name", "Name", "<6", |r| text(r.0)),
            col("count", "Count", ">6", |r: &Row| Cell::Int(r.1)).md("n"),
            col("", "[%]", ">6.1", |r| Cell::Float(r.2)),
            col("flag", "", "<", |r| Cell::Bool(r.3)),
            col("", "", "<", |r: &Row| Cell::Bool(r.3))
                .md("flag")
                .sep("  "),
        ],
    };

    const ROWS: [Row; 2] = [("a", 1, 12.345, true), ("bb", 20, 100.0, false)];

    #[test]
    fn text_pads_each_column_by_its_spec() {
        assert_eq!(
            GRID.text(&ROWS),
            "Grid\nName    Count    [%]\na           1   12.3\nbb         20  100.0\n"
        );
        let mut indented = String::new();
        GRID.rows_text(&mut indented, &ROWS[..1], 2);
        assert_eq!(indented, "  a         1   12.3\n");
    }

    #[test]
    fn markdown_uses_markdown_headers_and_alignment() {
        assert_eq!(
            GRID.markdown(&ROWS),
            "| Name | n | [%] | flag |\n|---|---:|---:|---|\n\
             | a | 1 | 12.3 | yes |\n| bb | 20 | 100.0 | no |\n"
        );
    }

    #[test]
    fn json_keeps_keyed_columns_at_full_precision() {
        assert_eq!(
            GRID.json(&ROWS).render(),
            r#"[{"name":"a","count":1,"flag":true},{"name":"bb","count":20,"flag":false}]"#
        );
        assert_eq!(GRID.entry(&[]).0, "grid");
    }

    #[test]
    fn transposed_text_prints_one_line_per_column() {
        let table = Table {
            columns: &GRID.columns[..2],
            ..GRID
        };
        assert_eq!(
            table.transposed_text(&ROWS, 7),
            "Grid\n       a     bb    \nCount       1    20\n"
        );
    }
}
