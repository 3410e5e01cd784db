//! Plain-text / markdown table rendering for experiment output.

use std::fmt::Write as _;

use crate::json::Json;

/// A simple numeric results table: one labelled row per application (plus
/// derived mean rows), one column per configuration/series.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table heading, e.g. `"Figure 12: TMNM coverage [%]"`.
    pub title: String,
    /// Label of the row-key column, e.g. `"app"`.
    pub key: String,
    /// Series names.
    pub columns: Vec<String>,
    /// `(row label, one value per column)`.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Fraction digits printed.
    pub precision: usize,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: &str, key: &str, columns: &[String]) -> Self {
        Table {
            title: title.to_owned(),
            key: key.to_owned(),
            columns: columns.to_vec(),
            rows: Vec::new(),
            precision: 1,
        }
    }

    /// Append one row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push_row(&mut self, label: &str, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch in `{}`", self.title);
        self.rows.push((label.to_owned(), values));
    }

    /// Append an arithmetic-mean row over the existing rows (the paper's
    /// "Arith. Mean" series).
    pub fn push_mean_row(&mut self) {
        if self.rows.is_empty() {
            return;
        }
        let n = self.rows.len() as f64;
        let means: Vec<f64> = (0..self.columns.len())
            .map(|c| self.rows.iter().map(|(_, v)| v[c]).sum::<f64>() / n)
            .collect();
        self.rows.push(("Arith. Mean".to_owned(), means));
    }

    /// Column index by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Value at `(row_label, column_name)`.
    pub fn value(&self, row: &str, column: &str) -> Option<f64> {
        let c = self.column(column)?;
        self.rows.iter().find(|(l, _)| l == row).map(|(_, v)| v[c])
    }

    /// Render as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = Vec::new();
        widths.push(
            self.rows.iter().map(|(l, _)| l.len()).chain([self.key.len()]).max().unwrap_or(4),
        );
        for (c, name) in self.columns.iter().enumerate() {
            let w = self
                .rows
                .iter()
                .map(|(_, v)| format!("{:.*}", self.precision, v[c]).len())
                .chain([name.len()])
                .max()
                .unwrap_or(4);
            widths.push(w);
        }

        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = write!(out, "{:<w$}", self.key, w = widths[0]);
        for (c, name) in self.columns.iter().enumerate() {
            let _ = write!(out, "  {:>w$}", name, w = widths[c + 1]);
        }
        out.push('\n');
        for (label, values) in &self.rows {
            let _ = write!(out, "{:<w$}", label, w = widths[0]);
            for (c, v) in values.iter().enumerate() {
                let _ = write!(out, "  {:>w$.p$}", v, w = widths[c + 1], p = self.precision);
            }
            out.push('\n');
        }
        out
    }

    /// Export as a JSON object (`title`/`key`/`precision`/`columns`/
    /// `rows`), the machine-readable twin of [`Table::render`] and
    /// [`Table::to_markdown`]. Cell values are exported at full precision;
    /// `precision` records how the text renderings rounded them.
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|(label, values)| {
                Json::obj(vec![
                    ("label", Json::str(label)),
                    ("values", Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("title", Json::str(&self.title)),
            ("key", Json::str(&self.key)),
            ("precision", Json::num(self.precision as f64)),
            ("columns", Json::Arr(self.columns.iter().map(|c| Json::str(c)).collect())),
            ("rows", Json::Arr(rows)),
        ])
    }

    /// Parse the [`Table::to_json`] form back (journal resume). `null`
    /// cells — non-finite values demoted by the JSON writer — come back as
    /// NaN, exactly what `diff` arithmetic treats them as.
    pub fn from_json(v: &Json) -> Result<Table, String> {
        let title = v.get("title").and_then(Json::as_str).ok_or("table: missing `title`")?;
        let key = v.get("key").and_then(Json::as_str).ok_or("table: missing `key`")?;
        let precision =
            v.get("precision").and_then(Json::as_f64).ok_or("table: missing `precision`")? as usize;
        let columns: Vec<String> = v
            .get("columns")
            .and_then(Json::as_arr)
            .ok_or("table: missing `columns`")?
            .iter()
            .map(|c| c.as_str().map(str::to_owned).ok_or("table: non-string column".to_owned()))
            .collect::<Result<_, _>>()?;
        let mut rows = Vec::new();
        for row in v.get("rows").and_then(Json::as_arr).ok_or("table: missing `rows`")? {
            let label = row.get("label").and_then(Json::as_str).ok_or("table: row label")?;
            let values: Vec<f64> = row
                .get("values")
                .and_then(Json::as_arr)
                .ok_or("table: row values")?
                .iter()
                .map(|v| v.as_f64().unwrap_or(f64::NAN))
                .collect();
            if values.len() != columns.len() {
                return Err(format!("table `{title}`: row `{label}` width mismatch"));
            }
            rows.push((label.to_owned(), values));
        }
        Ok(Table { title: title.to_owned(), key: key.to_owned(), columns, rows, precision })
    }

    /// Render as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = write!(out, "| {} |", self.key);
        for c in &self.columns {
            let _ = write!(out, " {c} |");
        }
        out.push('\n');
        let _ = write!(out, "|---|");
        for _ in &self.columns {
            let _ = write!(out, "---|");
        }
        out.push('\n');
        for (label, values) in &self.rows {
            let _ = write!(out, "| {label} |");
            for v in values {
                let _ = write!(out, " {:.*} |", self.precision, v);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Coverage", "app", &["A".to_owned(), "B".to_owned()]);
        t.push_row("gzip", vec![10.0, 20.0]);
        t.push_row("mcf", vec![30.0, 40.0]);
        t
    }

    #[test]
    fn mean_row_averages_columns() {
        let mut t = sample();
        t.push_mean_row();
        assert_eq!(t.value("Arith. Mean", "A"), Some(20.0));
        assert_eq!(t.value("Arith. Mean", "B"), Some(30.0));
    }

    #[test]
    fn lookup_by_labels() {
        let t = sample();
        assert_eq!(t.value("mcf", "B"), Some(40.0));
        assert_eq!(t.value("nope", "B"), None);
        assert_eq!(t.value("mcf", "C"), None);
    }

    #[test]
    fn render_contains_all_cells() {
        let text = sample().render();
        for needle in ["Coverage", "gzip", "mcf", "10.0", "40.0"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn markdown_is_well_formed() {
        let md = sample().to_markdown();
        assert!(md.contains("| app | A | B |"));
        assert!(md.lines().filter(|l| l.starts_with('|')).count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_checked() {
        sample().push_row("bad", vec![1.0]);
    }

    /// Every cell of the ASCII rendering, parsed back to `(label, column,
    /// value)` triples.
    fn ascii_cells(text: &str, t: &Table) -> Vec<(String, String, f64)> {
        let mut out = Vec::new();
        for line in text.lines().skip(2) {
            // Labels may contain spaces ("Arith. Mean"): the last
            // `columns` fields are the values, the rest is the label.
            let fields: Vec<&str> = line.split_whitespace().collect();
            let split = fields.len() - t.columns.len();
            let label = fields[..split].join(" ");
            for (c, field) in fields[split..].iter().enumerate() {
                out.push((label.clone(), t.columns[c].clone(), field.parse().unwrap()));
            }
        }
        out
    }

    /// Every cell of the markdown rendering, same shape.
    fn markdown_cells(md: &str, t: &Table) -> Vec<(String, String, f64)> {
        let mut out = Vec::new();
        for line in md.lines().filter(|l| l.starts_with('|')).skip(2) {
            let mut fields = line.trim_matches('|').split('|').map(str::trim);
            let label = fields.next().unwrap().to_owned();
            for (c, field) in fields.enumerate() {
                out.push((label.clone(), t.columns[c].clone(), field.parse().unwrap()));
            }
        }
        out
    }

    /// Golden agreement: the ASCII, markdown, and JSON renderings of one
    /// table expose the same cells (JSON at full precision, text at the
    /// table's printed precision).
    #[test]
    fn renderings_agree_cell_for_cell() {
        let mut t = sample();
        t.push_row("twolf", vec![33.333, 0.05]);
        t.push_mean_row();

        let json = t.to_json();
        let ascii = ascii_cells(&t.render(), &t);
        let md = markdown_cells(&t.to_markdown(), &t);
        assert_eq!(ascii.len(), t.rows.len() * t.columns.len());
        assert_eq!(ascii, md, "ASCII and markdown disagree");

        let rows = json.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), t.rows.len());
        let mut i = 0;
        for row in rows {
            let label = row.get("label").and_then(Json::as_str).unwrap();
            for (c, v) in row.get("values").and_then(Json::as_arr).unwrap().iter().enumerate() {
                let (a_label, a_col, a_val) = &ascii[i];
                assert_eq!(label, a_label);
                assert_eq!(&t.columns[c], a_col);
                let exact = v.as_f64().unwrap();
                let printed = format!("{:.*}", t.precision, exact).parse::<f64>().unwrap();
                assert_eq!(printed, *a_val, "cell {label}/{a_col}");
                i += 1;
            }
        }
        // And the JSON cells are the exact table values.
        assert_eq!(json.get("title").and_then(Json::as_str), Some(t.title.as_str()));
        assert_eq!(rows[2].get("values").and_then(Json::as_arr).unwrap()[0].as_f64(), Some(33.333));
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut t = sample();
        t.push_row("twolf", vec![33.333, 0.05]);
        t.push_mean_row();
        t.precision = 3;
        let back = Table::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
        // Malformed documents are rejected, not mis-parsed.
        assert!(Table::from_json(&Json::obj(vec![("title", Json::str("x"))])).is_err());
    }
}
