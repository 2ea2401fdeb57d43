//! Rendering decompositions the way the paper prints them: the template
//! per relation, then each component as a small table of fields × rows
//! with the probability column.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::field::{Field, FieldKind, Tid};
use crate::wsd::{Existence, TemplateCell, Wsd};

/// Human-readable field label `t3.age` / `t3.∃`, resolving attribute
/// positions to names through the owning relation's schema.
fn field_label(f: &Field, owner: &HashMap<Tid, (String, Vec<String>)>) -> String {
    match owner.get(&f.tid) {
        Some((_, attrs)) => match f.kind {
            FieldKind::Attr(p) => {
                let name = attrs
                    .get(p as usize)
                    .map(String::as_str)
                    .unwrap_or("?");
                format!("{}.{}", f.tid, name)
            }
            FieldKind::Exists => format!("{}.∃", f.tid),
        },
        None => f.to_string(),
    }
}

/// Renders the whole decomposition: templates, then components.
pub fn render(wsd: &Wsd) -> String {
    let mut owner: HashMap<Tid, (String, Vec<String>)> = HashMap::new();
    for (name, tpl) in &wsd.relations {
        let attrs: Vec<String> = tpl.schema.names().iter().map(|s| s.to_string()).collect();
        for t in &tpl.tuples {
            owner.insert(t.tid, (name.clone(), attrs.clone()));
        }
    }

    let mut out = String::new();
    for (name, tpl) in &wsd.relations {
        let _ = writeln!(
            out,
            "relation {name}({}) — {} template tuple(s):",
            tpl.schema.names().join(", "),
            tpl.tuples.len()
        );
        for t in &tpl.tuples {
            let cells: Vec<String> = t
                .cells
                .iter()
                .enumerate()
                .map(|(i, c)| match c {
                    TemplateCell::Certain(v) => v.to_string(),
                    TemplateCell::Open => {
                        match wsd.field_loc(Field::attr(t.tid, i as u32)) {
                            Some((comp, _)) => format!("⟨C{comp}⟩"),
                            None => "⟨?⟩".to_string(),
                        }
                    }
                })
                .collect();
            let exists = match t.exists {
                Existence::Always => String::new(),
                Existence::Open => match wsd.field_loc(Field::exists(t.tid)) {
                    Some((comp, _)) => format!("  ∃⟨C{comp}⟩"),
                    None => "  ∃⟨?⟩".to_string(),
                },
            };
            let _ = writeln!(out, "  {}: ({}){}", t.tid, cells.join(", "), exists);
        }
    }

    for idx in wsd.live_components() {
        let comp = wsd.component(idx).expect("live"); // maybms-lint: allow(no-panic-in-prod) -- component indices are maintained by the WSD itself; a dangling index means the decomposition is corrupt, so fail-stop
        let headers: Vec<String> = comp
            .fields()
            .iter()
            .map(|f| field_label(f, &owner))
            .collect();
        let _ = writeln!(out, "component C{idx}: {} | p", headers.join(" | "));
        for r in comp.rows() {
            let cells: Vec<String> = r.cells.iter().map(|c| c.to_string()).collect();
            let _ = writeln!(out, "  {} | {}", cells.join(" | "), format_p(r.p));
        }
    }
    out
}

fn format_p(p: f64) -> String {
    if (p - p.round()).abs() < 1e-12 {
        format!("{}", p.round() as i64)
    } else {
        let s = format!("{p:.6}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::medical_wsd;

    #[test]
    fn renders_the_paper_wsd() {
        let s = render(&medical_wsd());
        // the five components with the paper's values and probabilities
        assert!(s.contains("pregnancy | ultrasound | 0.4"), "{s}");
        assert!(s.contains("hypothyroidism | TSH | 0.6"), "{s}");
        assert!(s.contains("weight gain | 0.7"), "{s}");
        assert!(s.contains("obesity | 1"), "{s}");
        // field labels resolve to attribute names
        assert!(s.contains(".diagnosis"), "{s}");
        assert!(s.contains("relation R(diagnosis, test, symptom)"), "{s}");
    }

    #[test]
    fn renders_bottom_and_exists() {
        use maybms_relational::{ColumnType, Expr, Schema, Value};
        use maybms_worldset::OrSetCell;
        let mut w = crate::wsd::Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        w.push_orset(
            "r",
            vec![OrSetCell::weighted(vec![(Value::Int(1), 0.5), (Value::Int(2), 0.5)]).unwrap()],
        )
        .unwrap();
        let q = crate::algebra::Query::table("r").select(Expr::col("a").eq(Expr::lit(1i64)));
        let ans = crate::exec::eval(&q, &w).unwrap();
        let s = render(&ans);
        assert!(s.contains('⊥'), "{s}");
        assert!(s.contains('∃'), "{s}");
    }
}
