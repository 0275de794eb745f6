//! The one result shape every experiment produces: named columns over
//! rows of [`Json`] cells. A [`Table`] prints itself and serialises to
//! `target/experiments/<name>.json` as an array of objects keyed by the
//! columns, in column order.

use het_json::{Json, ToJson};
use std::path::PathBuf;

/// One experiment record.
#[derive(Clone, Debug)]
pub struct Table {
    /// File stem of the JSON record.
    pub name: &'static str,
    /// Column keys, in output order.
    pub columns: Vec<&'static str>,
    /// One cell per column per row.
    pub rows: Vec<Vec<Json>>,
}

/// How a cell reads in a printed table (the JSON record keeps full
/// precision).
fn show(cell: &Json) -> String {
    match cell {
        Json::Null => "n/a".to_string(),
        Json::Str(s) => s.clone(),
        Json::Num(x) if x.abs() >= 100.0 || x.fract() == 0.0 => format!("{x:.1}"),
        Json::Num(x) => format!("{x:.4}"),
        Json::Arr(items) => {
            let items: Vec<String> = items.iter().map(show).collect();
            format!("({})", items.join(","))
        }
        other => other.encode(),
    }
}

impl Table {
    /// An empty table over whitespace-separated `columns`.
    pub fn new(name: &'static str, columns: &'static str) -> Table {
        Table {
            name,
            columns: columns.split_whitespace().collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; `cells` must line up with the columns.
    pub fn push(&mut self, cells: &[&dyn ToJson]) {
        assert_eq!(cells.len(), self.columns.len(), "{}: row width", self.name);
        self.rows.push(cells.iter().map(|c| c.to_json()).collect());
    }

    pub(crate) fn col(&self, key: &str) -> usize {
        let found = self.columns.iter().position(|c| *c == key);
        found.unwrap_or_else(|| panic!("table {} has no column {key}", self.name))
    }

    /// The numeric cell at (`row`, `key`); 0 for a non-number.
    pub fn num(&self, row: usize, key: &str) -> f64 {
        self.rows[row][self.col(key)].as_f64().unwrap_or(0.0)
    }

    /// The string cell at (`row`, `key`); empty for a non-string.
    pub fn text(&self, row: usize, key: &str) -> &str {
        self.rows[row][self.col(key)].as_str().unwrap_or("")
    }

    /// Prints the table under its record name, one line per row, column
    /// widths taken from the cells.
    pub fn print(&self) {
        println!("[{}]", self.name);
        let mut lines: Vec<Vec<String>> =
            vec![self.columns.iter().map(|c| c.to_string()).collect()];
        lines.extend(self.rows.iter().map(|r| r.iter().map(show).collect()));
        let width = |c: usize| {
            lines
                .iter()
                .map(|l| l[c].chars().count())
                .max()
                .unwrap_or(0)
        };
        let widths: Vec<usize> = (0..self.columns.len()).map(width).collect();
        for line in &lines {
            let cells = line
                .iter()
                .zip(&widths)
                .map(|(cell, &w)| format!("{cell:>w$}"));
            println!("{}", cells.collect::<Vec<_>>().join("  "));
        }
        println!();
    }

    /// The record: an array of objects keyed by the columns.
    pub fn to_json(&self) -> Json {
        let object = |row: &Vec<Json>| {
            let keys = self.columns.iter().map(|c| c.to_string());
            Json::Obj(keys.zip(row.iter().cloned()).collect())
        };
        Json::Arr(self.rows.iter().map(object).collect())
    }

    /// Writes the record to `<experiments dir>/<name>.json`.
    pub fn write(&self) -> Result<(), String> {
        let path = experiments_dir()?.join(format!("{}.json", self.name));
        std::fs::write(&path, self.to_json().encode_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("[experiment json] {}", path.display());
        Ok(())
    }
}

/// The build's `target/` directory: `CARGO_TARGET_DIR` when set, else
/// the workspace's own.
pub fn target_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| format!("{}/../../target", env!("CARGO_MANIFEST_DIR")));
    PathBuf::from(target)
}

/// The directory experiment records are written to, created on demand.
pub fn experiments_dir() -> Result<PathBuf, String> {
    let dir = target_dir().join("experiments");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first row of the `fig2_motivation.json` the `impl_to_json!`
    /// row struct wrote before the table existed.
    const FIG2_ROW: &str = r#"[
  {
    "workload": "WDL-Criteo",
    "transfer_fraction": 0.9023624419654704,
    "compute_fraction": 0.09763755803452956,
    "embedding_params": 1664992
  }
]"#;

    #[test]
    fn record_keeps_key_order_and_number_formatting() {
        let mut t = Table::new(
            "fig2_motivation",
            "workload transfer_fraction compute_fraction embedding_params",
        );
        let transfer = 0.9023624419654704f64;
        t.push(&[&"WDL-Criteo", &transfer, &(1.0 - transfer), &1_664_992u64]);
        assert_eq!(t.to_json().encode_pretty(), FIG2_ROW);
        assert_eq!(het_json::from_str(FIG2_ROW).unwrap(), t.to_json());
        assert_eq!(t.num(0, "embedding_params"), 1_664_992.0);
        assert_eq!(t.text(0, "workload"), "WDL-Criteo");

        // Integral floats keep their ".0", absent values are null, and
        // nested pairs stay arrays — the other shapes records use.
        let mut t = Table::new("shapes", "x t points");
        t.push(&[&2.0f64, &None::<f64>, &vec![(0.5f64, 1u64)]]);
        assert_eq!(
            t.to_json().encode(),
            r#"[{"x":2.0,"t":null,"points":[[0.5,1]]}]"#
        );
    }
}
