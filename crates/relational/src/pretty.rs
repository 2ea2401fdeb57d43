//! ASCII table rendering for relations — the text every server reply,
//! shell and experiment prints.
//!
//! [`render`] makes two passes. The first formats every shown cell once,
//! back to back, into one scratch `String`, recording where each cell
//! ends and how many chars it holds; `Str` and `Int` are written without
//! the `fmt` machinery, `Float` and `Bool` with their `Display` text, and
//! `NULL` as `NULL`. The second writes the table into one `String` sized
//! up front, taking every cell as a slice of the scratch buffer and its
//! padding and separator dashes as slices of prebuilt runs.
//!
//! A column is as wide as the largest *byte* length among its header and
//! shown cells, but a cell is padded by *chars* — so a column holding
//! multi-byte text comes out wider than its ASCII neighbours, exactly as
//! `format!("{cell:<width$}")` would print it. A relation with no columns
//! still prints one `|` line per shown row.

use std::fmt::Write as _;

use crate::relation::Relation;
use crate::value::Value;

/// Renders a relation as an ASCII table, capping at `max_rows` data rows
/// (a trailer line reports elided rows).
pub fn render(r: &Relation, max_rows: usize) -> String {
    let names = r.schema().names();
    let shown = &r.rows()[..r.len().min(max_rows)];
    let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();

    // Pass 1: every shown cell, once; `cells[k]` is (end offset, chars).
    let mut text = String::new();
    let mut cells = Vec::with_capacity(shown.len() * names.len());
    for t in shown {
        for (v, w) in t.values().iter().zip(&mut widths) {
            let start = text.len();
            push_value(&mut text, v);
            let cell = &text[start..];
            let chars = if cell.is_ascii() { cell.len() } else { cell.chars().count() };
            *w = (*w).max(cell.len());
            cells.push((text.len(), chars));
        }
    }

    // Pass 2: the table, into one buffer.
    let widest = widths.iter().copied().max().unwrap_or(0);
    let (spaces, dashes) = (" ".repeat(widest), "-".repeat(widest + 2));
    let line = 2 + widths.iter().map(|w| w + 3).sum::<usize>();
    // exact for ASCII text; multi-byte cells may grow it once
    let mut out = String::with_capacity(line * (shown.len() + 4) + 64);
    let sep = |out: &mut String| {
        out.push('+');
        for w in &widths {
            out.push_str(&dashes[..w + 2]);
            out.push('+');
        }
        out.push('\n');
    };
    let cell = |out: &mut String, s: &str, chars: usize, w: usize| {
        out.push(' ');
        out.push_str(s);
        out.push_str(&spaces[..w.saturating_sub(chars)]);
        out.push_str(" |");
    };
    sep(&mut out);
    out.push('|');
    for (n, &w) in names.iter().zip(&widths) {
        cell(&mut out, n, n.chars().count(), w);
    }
    out.push('\n');
    sep(&mut out);
    let (mut k, mut start) = (0, 0);
    for t in shown {
        out.push('|');
        for &w in widths.iter().take(t.arity()) {
            let (end, chars) = cells[k];
            cell(&mut out, &text[start..end], chars, w);
            (k, start) = (k + 1, end);
        }
        out.push('\n');
    }
    sep(&mut out);
    let _ = if r.len() > max_rows {
        writeln!(out, "({} rows, {} shown)", r.len(), max_rows)
    } else {
        writeln!(out, "({} rows)", r.len())
    };
    out
}

/// Appends a cell's text: `Str` and `Int` directly, the rest through
/// `Display` (whose `Null` text is `NULL`).
fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::Str(s) => out.push_str(s),
        Value::Int(i) => {
            let mut digits = [0u8; 20];
            let mut n = i.unsigned_abs();
            let mut at = digits.len();
            loop {
                at -= 1;
                digits[at] = b'0' + (n % 10) as u8;
                n /= 10;
                if n == 0 {
                    break;
                }
            }
            if *i < 0 {
                out.push('-');
            }
            out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
        }
        v => {
            let _ = write!(out, "{v}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};
    use crate::tuple::Tuple;
    use proptest::prelude::*;

    /// The `format!`-per-cell renderer [`render`] replaced: the reference
    /// its bytes are checked against.
    fn reference_render(r: &Relation, max_rows: usize) -> String {
        let names = r.schema().names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let rendered: Vec<Vec<String>> = r
            .rows()
            .iter()
            .take(max_rows)
            .map(|t| t.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let sep = |widths: &[usize]| {
            let mut s = String::from("+");
            for w in widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s.push('\n');
            s
        };
        let mut out = sep(&widths);
        out.push('|');
        for (n, w) in names.iter().zip(&widths) {
            out.push_str(&format!(" {n:<w$} |"));
        }
        out.push('\n');
        out.push_str(&sep(&widths));
        for row in &rendered {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        out.push_str(&sep(&widths));
        if r.len() > max_rows {
            out.push_str(&format!("({} rows, {} shown)\n", r.len(), max_rows));
        } else {
            out.push_str(&format!("({} rows)\n", r.len()));
        }
        out
    }

    #[test]
    fn golden_table_pads_by_chars_and_sizes_by_bytes() {
        let mut r = Relation::empty(Schema::new(vec![
            ("name", ColumnType::Str),
            ("n", ColumnType::Int),
            ("x", ColumnType::Float),
            ("ok", ColumnType::Bool),
        ]));
        for row in [
            vec![Value::str("é"), Value::Int(-42), Value::Float(1.5), Value::Bool(true)],
            vec![Value::str("日本"), Value::Null, Value::Float(-0.25), Value::Bool(false)],
            vec![Value::Null, Value::Int(7), Value::Null, Value::Null],
            vec![Value::str("ab"), Value::Int(0), Value::Float(3.0), Value::Bool(true)],
        ] {
            r.push_values(row).unwrap();
        }
        let expected = "\
+--------+------+-------+-------+
| name   | n    | x     | ok    |
+--------+------+-------+-------+
| é      | -42  | 1.5   | true  |
| 日本     | NULL | -0.25 | false |
| NULL   | 7    | NULL  | NULL  |
+--------+------+-------+-------+
(4 rows, 3 shown)
";
        assert_eq!(render(&r, 3), expected);
        assert_eq!(reference_render(&r, 3), expected);
    }

    #[test]
    fn golden_zero_column_table_prints_a_line_per_row() {
        let mut r = Relation::empty(Schema::empty());
        r.push_values(vec![]).unwrap();
        r.push_values(vec![]).unwrap();
        assert_eq!(render(&r, 10), "+\n|\n+\n|\n|\n+\n(2 rows)\n");
    }

    #[test]
    fn renders_header_and_rows() {
        let mut r = Relation::empty(Schema::new(vec![
            ("name", ColumnType::Str),
            ("n", ColumnType::Int),
        ]));
        r.push_values(vec![Value::str("x"), Value::Int(1)]).unwrap();
        r.push_values(vec![Value::Null, Value::Int(22)]).unwrap();
        let s = render(&r, 10);
        assert!(s.contains("| name |"));
        assert!(s.contains("NULL"));
        assert!(s.contains("(2 rows)"));
    }

    #[test]
    fn caps_rows() {
        let mut r = Relation::empty(Schema::new(vec![("n", ColumnType::Int)]));
        for i in 0..100 {
            r.push_values(vec![Value::Int(i)]).unwrap();
        }
        let s = render(&r, 5);
        assert!(s.contains("(100 rows, 5 shown)"));
    }

    fn value_of(ty: ColumnType) -> BoxedStrategy<Value> {
        let typed = match ty {
            ColumnType::Int => prop_oneof![
                any::<i64>(),
                Just(i64::MIN),
                Just(i64::MAX),
                Just(0i64),
                -12i64..12
            ]
            .prop_map(Value::Int),
            ColumnType::Float => prop_oneof![
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(-0.0),
                Just(1e300),
                any::<i64>().prop_map(|i| i as f64 / 1000.0),
            ]
            .prop_map(Value::Float),
            ColumnType::Bool => any::<bool>().prop_map(Value::Bool),
            _ => prop_oneof![
                Just(String::new()),
                "[a-z]{0,12}",
                "[é日本ß a]{0,6}",
                "[🦀x]{1,3}",
            ]
            .prop_map(Value::str),
        };
        prop_oneof![typed.clone(), typed.clone(), typed, Just(Value::Null)]
    }

    fn relation() -> BoxedStrategy<(Relation, usize)> {
        let ty = prop_oneof![
            Just(ColumnType::Int),
            Just(ColumnType::Float),
            Just(ColumnType::Bool),
            Just(ColumnType::Str),
        ];
        let cols = prop::collection::vec((prop_oneof!["[a-z]{1,8}", "[é日x]{1,3}"], ty), 0..7);
        Strat::new(move |rng| {
            let cols = cols.generate(rng);
            let schema = Schema::new(cols.iter().map(|(n, t)| (n.as_str(), *t)).collect());
            let row: Vec<_> = cols.iter().map(|(_, t)| value_of(*t)).collect();
            let n = (0usize..41).generate(rng);
            let rows = (0..n)
                .map(|_| Tuple::new(row.iter().map(|s| s.generate(rng)).collect()))
                .collect();
            let max_rows = [0, 1, n.saturating_sub(1), n, n + 1][(0usize..5).generate(rng)];
            (Relation::from_rows_unchecked(schema, rows), max_rows)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]
        #[test]
        fn render_is_byte_identical_to_the_reference((r, max_rows) in relation()) {
            prop_assert_eq!(render(&r, max_rows), reference_render(&r, max_rows));
        }
    }
}
