//! Seeded benchmark of the ksir workspace: ad-hoc k-SIR queries and
//! standing-query freshness.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload adhoc_window --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Prints a few human-readable lines, then one JSON object as the last line
//! of standard output: `correct`, `attempted`, `failed` and `metrics`.  With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones, computed from spans recorded around each layer's public
//! API; the spans are also written to `perfbench/out/`.

mod adhoc;
mod common;
mod standing;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use common::{Ctx, Error, Report};

const WORKLOADS: [&str; 2] = ["adhoc_window", "standing_feed"];

/// End-to-end metrics: every workload reports all of them untraced.
/// `latency_p50_ms` is the workload's headline latency: ad-hoc query
/// latency on `adhoc_window`, delta freshness on the standing workloads.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("peak_elems_per_s", "1/s"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics of the traced run, plus the headline latency's p99,
/// which the host's scheduling noise moves too much to bound.  A counter a
/// workload's layers never bump reports 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("latency_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.backlog_max_epochs", "count"),
    ("core.ingest_us_per_elem", "us"),
    ("core.ingest_p99_ms", "ms"),
    ("stream.touches_per_slide", "count"),
    ("stream.tuples_refreshed_per_slide", "count"),
    ("stream.expired_per_slide", "count"),
    ("core.query_p50_ms.mtts", "ms"),
    ("core.query_p50_ms.mttd", "ms"),
    ("core.query_p99_ms.mtts", "ms"),
    ("core.query_p99_ms.mttd", "ms"),
    ("core.evaluated_ratio.mtts", "ratio"),
    ("core.evaluated_ratio.mttd", "ratio"),
    ("core.gain_evals_per_query.mtts", "count"),
    ("core.gain_evals_per_query.mttd", "count"),
    ("core.active_elements_mean", "count"),
    ("core.archived_elements_end", "count"),
    ("snapshot.epochs_per_slide", "count"),
    ("snapshot.shard_snapshots_per_slide", "count"),
    ("snapshot.cow_clones_per_slide", "count"),
    ("continuous.ingest_return_p50_ms", "ms"),
    ("continuous.ingest_return_p99_ms", "ms"),
    ("continuous.refresh_self_ms_per_slide", "ms"),
    ("continuous.skip_ratio", "ratio"),
    ("continuous.refreshes_per_slide", "count"),
    ("continuous.gain_evals_per_slide", "count"),
    ("continuous.delta_refresh_ratio", "ratio"),
    ("continuous.shared_refresh_ratio", "ratio"),
    ("continuous.covering_per_slide", "count"),
    ("continuous.subscribe_us_p50", "us"),
    ("continuous.subscribe_us_p99", "us"),
    ("continuous.attach_delivery_us_p50", "us"),
    ("continuous.attach_delivery_us_p99", "us"),
    ("continuous.attach_setup_frac", "ratio"),
    ("core.serial_ingest_ms_per_slide", "ms"),
    ("continuous.serial_ms_per_slide", "ms"),
    ("delivery.deltas_per_slide", "count"),
    ("delivery.dropped", "count"),
    ("delivery.queue_depth_max", "count"),
    ("delivery.consumer_busy_frac", "ratio"),
    ("trace.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, Error> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => trace = Some(value.parse::<u8>()? != 0),
            _ => return Err(format!("unknown flag {flag}").into()),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}").into());
    }
    let seconds = seconds.unwrap_or(50.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        },
    })
}

fn run(args: &Args) -> Result<Report, Error> {
    let mut report = match args.workload.as_str() {
        "adhoc_window" => adhoc::run(&args.ctx)?,
        _ => standing::run(&args.ctx)?,
    };
    // Read last: the peak covers everything this process did.
    report.set("rss_peak_mb", stats::rss_peak_mb().unwrap_or(f64::NAN));
    Ok(report)
}

/// A JSON number; a non-finite value (never expected) is written as a
/// huge finite one so the line stays valid JSON, and flags the run.
fn json_number(value: f64, bad: &mut bool) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        *bad = true;
        "1e300".to_string()
    }
}

fn result_line(report: &Report, trace: bool) -> String {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut bad = false;
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = report.metrics.get(*name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let number = json_number(value, &mut bad);
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {number}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = report.failed == 0 && !bad;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    )
}

fn write_trace(args: &Args, json: &str) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload, args.ctx.seed
    ));
    std::fs::write(&path, json)?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let known: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| m.0)
        .collect();
    let unknown: Vec<&String> = report
        .metrics
        .keys()
        .filter(|k| !known.contains(&k.as_str()))
        .collect();
    assert!(
        unknown.is_empty(),
        "metrics missing from the lists: {unknown:?}"
    );

    println!(
        "workload={} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.ctx.seed,
        args.ctx.seconds,
        u8::from(args.ctx.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for line in &report.notes {
        println!("  {line}");
    }
    println!(
        "  failed_frac={} ({} of {} operations and checks)",
        stats::ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    for failure in report.failures() {
        println!("  FAILED: {failure}");
    }
    if let Some(json) = &report.tracer_json {
        match write_trace(&args, json) {
            Ok(path) => println!("  spans written to {path}"),
            Err(e) => println!("  spans not written: {e}"),
        }
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if let Some(value) = report.metrics.get(*name) {
            println!("  {name} = {value:.6} {unit}");
        }
    }
    println!("{}", result_line(&report, args.ctx.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root must declare exactly the
    /// workloads and metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{name} ({unit}) missing");
        }
        for workload in WORKLOADS {
            assert!(compact.contains(&format!("{{\"name\":\"{workload}\",\"why\"")));
        }
        let declared = compact.matches("{\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }

    #[test]
    fn the_result_line_lists_every_metric_of_its_kind() {
        let mut report = Report::default();
        report.set("setup_s", 0.5);
        let line = result_line(&report, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        report.set("latency_p50_ms", f64::INFINITY);
        assert!(result_line(&report, false).starts_with("{\"correct\": false"));
    }
}
