//! Numbers out: order statistics, the metric catalog, the result line the
//! driver reads, and the facts about the machine every record carries.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One catalog entry. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics carry 0.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the server sees. Every workload reports every one of
/// these with `--trace 0`; `BENCHMARK.json` repeats the list.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_ops_s", "ops/s", Better::Higher, 0.25),
    e2e("p50_us", "us", Better::Lower, 0.25),
    e2e("p95_us", "us", Better::Lower, 0.25),
    e2e("recovery_s", "s", Better::Lower, 0.25),
    e2e("disk_bytes_per_user_byte", "ratio", Better::Lower, 0.02),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
];

/// One layer each (layer = crate, then module). Every workload reports
/// every one of these with `--trace 1`; a layer that is not on the
/// workload's statement path reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("server.rtt_floor_us", "us", Better::Lower),
    layer("server.proto_req_us", "us", Better::Lower),
    layer("server.proto_resp_us", "us", Better::Lower),
    layer("server.reply_bytes_p50", "bytes", Better::Lower),
    layer("server.requests", "count", Better::Higher),
    layer("sql.parse_us", "us", Better::Lower),
    layer("sql.optimize_us", "us", Better::Lower),
    layer("sql.session_execute_us", "us", Better::Lower),
    layer("sql.snapshot_install_us", "us", Better::Lower),
    layer("sql.apply_us", "us", Better::Lower),
    layer("sql.wire_encode_us", "us", Better::Lower),
    layer("sql.group_commit_us", "us", Better::Lower),
    layer("sql.group.fsyncs_per_commit", "ratio", Better::Lower),
    layer("core.compile_us", "us", Better::Lower),
    layer("core.exec_run_us", "us", Better::Lower),
    layer("core.prob_us", "us", Better::Lower),
    layer("core.normalize_us", "us", Better::Lower),
    layer("core.wsd_clone_us", "us", Better::Lower),
    layer("core.wsd_drop_us", "us", Better::Lower),
    layer("core.codec_encode_us", "us", Better::Lower),
    layer("core.codec_decode_us", "us", Better::Lower),
    layer("core.codec_bytes", "bytes", Better::Lower),
    layer("core.exec_fallback_share", "ratio", Better::Lower),
    layer("core.exec_memo_hit_share", "ratio", Better::Higher),
    layer("core.exec_rows_per_result_row", "ratio", Better::Lower),
    layer("core.wsd_components", "count", Better::Lower),
    layer("core.wsd_log10_worlds", "log10", Better::Higher),
    layer("core.wsd_size_bytes", "bytes", Better::Lower),
    layer("storage.wal_append_us", "us", Better::Lower),
    layer("storage.wal_append_nosync_us", "us", Better::Lower),
    layer("storage.fsync_us", "us", Better::Lower),
    layer("storage.wal_bytes_per_commit", "bytes", Better::Lower),
    layer("storage.checkpoint_us", "us", Better::Lower),
    layer("storage.checkpoint_bytes", "bytes", Better::Lower),
    layer("storage.open_us", "us", Better::Lower),
    layer("storage.replay_stmts_per_s", "1/s", Better::Higher),
    layer("relational.render_us", "us", Better::Lower),
    layer("census.generate_s", "s", Better::Lower),
    layer("census.load_s", "s", Better::Lower),
    layer("census.to_wsd_s", "s", Better::Lower),
    layer("client.read_p50_us", "us", Better::Lower),
    layer("client.read_p95_us", "us", Better::Lower),
    layer("client.write_p50_us", "us", Better::Lower),
    layer("client.write_p95_us", "us", Better::Lower),
    layer("client.p99_us", "us", Better::Lower),
    layer("client.max_us", "us", Better::Lower),
    layer("client.samples", "count", Better::Higher),
    layer("trace.unattributed_share", "ratio", Better::Lower),
    layer("trace.overhead_share", "ratio", Better::Lower),
];

/// Measured values, keyed by catalog name.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` over `catalog`, in
    /// catalog order; a metric never set reads 0.
    pub fn to_json(&self, catalog: &[MetricDef]) -> String {
        let mut out = String::from("{");
        for (i, def) in catalog.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                num(self.get(def.name)),
                def.unit
            );
        }
        out.push('}');
        out
    }

    /// One `name value unit` line per catalog entry.
    pub fn print(&self, catalog: &[MetricDef]) {
        for def in catalog {
            println!(
                "  {:<32} {:>16} {}",
                def.name,
                num(self.get(def.name)),
                def.unit
            );
        }
    }
}

/// A JSON number with all the digits measured (non-finite reads 0).
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        return format!("{}", v as i64);
    }
    format!("{v}")
}

/// Pulls `"name": {"value": X` out of a result line this program wrote.
pub fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts ascending (latencies are never NaN).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b));
}

pub fn median(mut v: Vec<f64>) -> f64 {
    sort(&mut v);
    percentile(&v, 50.0)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The benchmark's own directory: where `cargo run` says the manifest
/// is, else where it was when this binary was built.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Where records, traces and scratch databases go (git-ignored).
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Short git revision of the checkout, `unknown` outside a repository
/// (the driver's checkout is not one).
pub fn git_rev() -> String {
    Command::new("git")
        .arg("-C")
        .arg(bench_dir())
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// High-water resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Escapes a string for a JSON document.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
