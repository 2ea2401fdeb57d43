//! The Prometheus text exposition encoder: renders a [`Registry`]
//! snapshot in the format scrapers expect (`text/plain; version=0.0.4`).
//! Metric names are prefixed `maybms_` and sanitized (every character
//! outside `[a-zA-Z0-9_:]` becomes `_`, so the registry's dotted names
//! map `wal.appends` → `maybms_wal_appends`). Histograms expand into the
//! conventional `_bucket{le="…"}` / `_sum` / `_count` series.

use crate::registry::{MetricValue, Registry};

/// Sanitizes one registry name into a Prometheus metric name.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("maybms_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders every metric in `reg` in the Prometheus text format.
pub fn prometheus_text(reg: &Registry) -> String {
    let mut out = String::new();
    for (name, value) in reg.snapshot() {
        let pname = metric_name(&name);
        match value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("# TYPE {pname} counter\n{pname} {v}\n"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("# TYPE {pname} gauge\n{pname} {v}\n"));
            }
            MetricValue::Histogram(bounds, buckets, sum, count) => {
                out.push_str(&format!("# TYPE {pname} histogram\n"));
                // Prometheus buckets are cumulative
                let mut cum = 0u64;
                for (i, b) in buckets.iter().enumerate() {
                    cum += b;
                    let le = match bounds.get(i) {
                        Some(bound) => bound.to_string(),
                        None => "+Inf".to_string(),
                    };
                    out.push_str(&format!("{pname}_bucket{{le=\"{le}\"}} {cum}\n"));
                }
                out.push_str(&format!("{pname}_sum {sum}\n{pname}_count {count}\n"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::test_flag_lock as flag_lock;

    #[test]
    fn counters_and_gauges_render() {
        let _g = flag_lock();
        let r = Registry::new();
        r.counter("wal.appends").add(3);
        r.gauge("server.connections").set(-2);
        let text = prometheus_text(&r);
        assert!(text.contains("# TYPE maybms_wal_appends counter"), "{text}");
        assert!(text.contains("maybms_wal_appends 3"), "{text}");
        assert!(text.contains("# TYPE maybms_server_connections gauge"), "{text}");
        assert!(text.contains("maybms_server_connections -2"), "{text}");
    }

    #[test]
    fn histograms_render_cumulative_buckets() {
        let _g = flag_lock();
        let r = Registry::new();
        let h = r.histogram("q.us", &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        let text = prometheus_text(&r);
        assert!(text.contains("# TYPE maybms_q_us histogram"), "{text}");
        assert!(text.contains("maybms_q_us_bucket{le=\"10\"} 1"), "{text}");
        assert!(text.contains("maybms_q_us_bucket{le=\"100\"} 2"), "{text}");
        assert!(text.contains("maybms_q_us_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("maybms_q_us_sum 555"), "{text}");
        assert!(text.contains("maybms_q_us_count 3"), "{text}");
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(metric_name("exec.rows.hash-join"), "maybms_exec_rows_hash_join");
    }
}
