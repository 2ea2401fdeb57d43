//! Scaling series ("figure"-style): how decomposition build time, storage
//! overhead and the E3 query-time ratio evolve with the number of records,
//! at fixed noise. The paper's claims are asymptotic ("scalable evaluation",
//! overhead independent of world count); this series makes the trend
//! visible.
//!
//! Usage: `scaling_table [noise] [seed]` (default 0.001 3)

use std::time::Instant;

use maybms_bench::queries::query_suite;
use maybms_bench::table::{fmt_bytes, fmt_duration, print_table};
use maybms_census::{generate, inject, to_wsd, NoiseSpec};
use maybms_core::exec::eval;
use maybms_worldset::eval::eval_in_world;

fn main() {
    let mut args = std::env::args().skip(1);
    let rate: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.001);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(3);

    let sizes = [1_000usize, 5_000, 25_000, 100_000];
    let mut rows = Vec::new();
    for &n in &sizes {
        let base = generate(n, seed);
        let os = inject(
            &base,
            NoiseSpec { rate, max_width: 4, weighted: false, seed: seed ^ 0xBEEF },
        )
        .expect("inject");
        let start = Instant::now();
        let wsd = to_wsd(&os).expect("decompose");
        let build = start.elapsed();

        // Q1 ratio at this size
        let setup = maybms_bench::e3_setup(n, rate, seed).expect("setup");
        let q1 = &query_suite()[0];
        let t0 = Instant::now();
        eval_in_world(&q1.query, &setup.single_world).expect("baseline");
        let single = t0.elapsed();
        let t1 = Instant::now();
        eval(&q1.query, &setup.wsd).expect("wsd");
        let on_wsd = t1.elapsed();

        rows.push(vec![
            n.to_string(),
            format!("{:.0}", wsd.world_count().log10()),
            fmt_bytes(base.size_bytes()),
            format!(
                "{:+.2}%",
                100.0 * (wsd.size_bytes() as f64 - base.size_bytes() as f64)
                    / base.size_bytes() as f64
            ),
            fmt_duration(build),
            fmt_duration(single),
            fmt_duration(on_wsd),
            format!("{:.2}x", on_wsd.as_secs_f64() / single.as_secs_f64().max(1e-9)),
        ]);
    }
    print_table(
        &format!("Scaling series at {:.2}% noise (Q1 = σ age=30)", rate * 100.0),
        &[
            "records",
            "log10(worlds)",
            "original",
            "overhead",
            "build",
            "Q1 single world",
            "Q1 WSD",
            "ratio",
        ],
        &rows,
    );
    println!(
        "\npaper shape: overhead and the query-time ratio stay flat as records \
         (and thus world count, doubly-exponentially) grow — \"scalable \
         evaluation\" (paper §1)."
    );
}
