//! `perfbench`: the seeded benchmark of the Pictor workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload in its own process (so its peak
//! resident set is its own), prints a human-readable report, a `# meta`
//! line with the host fingerprint and run metadata, and as its last line
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones from a span trace, written to the scratch directory at
//! exit. The process exits non-zero when an output check fails.
//!
//! Workloads are described in `perfbench/README.md`.

mod digest;
mod host;
mod serve;
mod sim;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::time::Duration;

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

impl RunCfg {
    /// The measured window.
    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// Metric units as printed.
#[derive(Debug, Clone, Copy)]
pub enum Unit {
    S,
    Ms,
    Us,
    Ns,
    Mb,
    PerS,
    SimPerWall,
    MsPerSimS,
    Count,
    Ratio,
    Pct,
    Bytes,
}

impl Unit {
    fn label(self) -> &'static str {
        match self {
            Unit::S => "s",
            Unit::Ms => "ms",
            Unit::Us => "us",
            Unit::Ns => "ns",
            Unit::Mb => "MB",
            Unit::PerS => "1/s",
            Unit::SimPerWall => "s/s",
            Unit::MsPerSimS => "ms/s",
            Unit::Count => "count",
            Unit::Ratio => "ratio",
            Unit::Pct => "%",
            Unit::Bytes => "bytes",
        }
    }
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Outcome {
    workload: &'static str,
    /// Operations attempted (cells run, requests sent).
    pub attempted: u64,
    /// Operations that failed (see `README.md` for what counts).
    pub failed: u64,
    /// False once any output check failed.
    pub correct: bool,
    metrics: Vec<(&'static str, f64, Unit)>,
    meta: Vec<(String, String)>,
    notes: Vec<String>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: Vec::new(),
            meta: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: Unit) {
        self.metrics.push((name, value, unit));
    }

    /// Records the spans of a traced run and how many repetitions ran
    /// untraced and traced (the base of `trace.overhead_pct`).
    pub fn trace_counts(&mut self, spans: usize, untraced: usize, traced: usize) {
        self.metric("trace.spans", spans as f64, Unit::Count);
        self.metric("trace.untraced_reps", untraced as f64, Unit::Count);
        self.metric("trace.traced_reps", traced as f64, Unit::Count);
    }

    /// Records a run-metadata field.
    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Records the samples behind a percentile family: repetitions, total
    /// and smallest-repetition counts, and the highest percentile the
    /// smallest repetition supports (at least ten samples beyond it).
    pub fn samples(&mut self, family: &str, reps: &stats::Reps) {
        self.meta(&format!("{family}_reps"), reps.reps());
        self.meta(&format!("{family}_samples"), reps.total());
        self.meta(&format!("{family}_samples_min_rep"), reps.min_len());
        let top = stats::highest_supported(reps.min_len())
            .map_or("none".into(), |q| format!("p{}", q * 100.0));
        self.meta(&format!("{family}_highest_supported"), top);
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Marks an output check as failed, with the reason.
    pub fn fail_check(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {why}"));
    }
}

/// Writes the run's spans to the scratch directory.
pub fn write_trace(out: &mut Outcome, cfg: &RunCfg, spans: &[trace::Span]) {
    let path = host::scratch_dir().join(format!("trace-{}-seed{}.tsv", cfg.workload, cfg.seed));
    match trace::write_tsv(&path, spans) {
        Ok(()) => out.meta("trace_file", path.display()),
        Err(e) => out.note(format!("could not write the span trace: {e}")),
    }
    out.meta("spans", spans.len());
}

/// JSON string literal (the values printed here are plain ASCII).
fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// A metric value as JSON: every digit Rust's shortest round-trip
/// formatting gives; non-finite values become `null` (and fail the run).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// The end-to-end metrics every workload reports with `--trace 0`.
///
/// The medians `decide_p50_us` and `latency_p50_us` are measured too but
/// only printed in the report: on a shared VM they move by up to half
/// between runs of the same code, more than any bound may allow
/// (`README.md`, "Host noise"). The central tendency is judged through
/// the rates instead, the tails through the p99 and p99.9 figures.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "sim_s_per_wall_s",
    "decide_p99_us",
    "req_per_s",
    "latency_p99_us",
    "latency_p999_us",
    "peak_rss_mb",
];

/// The per-layer metrics every workload reports with `--trace 1`, with
/// their units; a layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, Unit); 41] = [
    ("render.self_ms_per_sim_s", Unit::MsPerSimS),
    ("render.setup_ms", Unit::Ms),
    ("render.frames_rendered", Unit::Count),
    ("render.frames_dropped", Unit::Count),
    ("render.display_ratio", Unit::Ratio),
    ("render.inputs_sent", Unit::Count),
    ("apps.on_frame_calls", Unit::Count),
    ("apps.on_frame_us_p50", Unit::Us),
    ("client.decide_calls", Unit::Count),
    ("client.decide_us_p50", Unit::Us),
    ("client.decide_us_p99", Unit::Us),
    ("ml.detect_us_p50", Unit::Us),
    ("ml.agent_us_p50", Unit::Us),
    ("ml.train_s_per_app", Unit::S),
    ("core.drain_ms", Unit::Ms),
    ("core.records", Unit::Count),
    ("protocol.encode_ns_p50", Unit::Ns),
    ("protocol.bytes_per_req", Unit::Bytes),
    ("daemon.handle_frame_us_p50", Unit::Us),
    ("daemon.handle_frame_us_p99", Unit::Us),
    ("daemon.handle_frame_us_p999", Unit::Us),
    ("fleet.offer_arrival_us_p50", Unit::Us),
    ("fleet.offer_arrival_us_p99", Unit::Us),
    ("fleet.step_to_calls", Unit::Count),
    ("fleet.step_to_us_max", Unit::Us),
    ("fleet.server_telemetry_us_p50", Unit::Us),
    ("fleet.snapshot_us_p50", Unit::Us),
    ("fleet.admit_ratio", Unit::Ratio),
    ("journal.record_ns_p50", Unit::Ns),
    ("journal.bytes_per_event", Unit::Bytes),
    ("journal.bytes", Unit::Bytes),
    ("transport.residual_us_p50", Unit::Us),
    ("transport.residual_us_p99", Unit::Us),
    ("share.protocol_pct", Unit::Pct),
    ("share.daemon_pct", Unit::Pct),
    ("share.transport_pct", Unit::Pct),
    ("trace.coverage_pct", Unit::Pct),
    ("trace.overhead_pct", Unit::Pct),
    ("trace.spans", Unit::Count),
    ("trace.untraced_reps", Unit::Count),
    ("trace.traced_reps", Unit::Count),
];

/// Orders the metrics as listed in `names`. A listed metric the run did
/// not measure reads 0 when it has a unit to fill with, and fails the
/// run otherwise. A measured metric that is not listed moves to the
/// report.
fn complete(out: &mut Outcome, names: &[(&'static str, Option<Unit>)]) {
    let mut have = std::mem::take(&mut out.metrics);
    for &(name, fill) in names {
        match have.iter().position(|m| m.0 == name) {
            Some(i) => out.metrics.push(have.remove(i)),
            None => match fill {
                Some(unit) => out.metrics.push((name, 0.0, unit)),
                None => out.fail_check(format!("metric {name} was not measured")),
            },
        }
    }
    for (name, v, unit) in have {
        out.note(format!("{name} {v:.4} {} (not judged)", unit.label()));
    }
}

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "render_colocated",
    "ic_play",
    "serve_admit",
    "serve_telemetry",
];

fn parse_args() -> RunCfg {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let workload = value("--workload").unwrap_or_else(|| usage());
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    let num = |flag: &str, default: u64| match value(flag) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| usage()),
    };
    RunCfg {
        workload,
        seed: num("--seed", 1),
        seconds: num("--seconds", 10).max(1),
        trace: match num("--trace", 0) {
            0 => false,
            1 => true,
            _ => usage(),
        },
    }
}

fn main() {
    let cfg = parse_args();
    // Read before a workload may pin itself to one CPU.
    let nproc = host::nproc();
    let ticks = host::cpu_ticks();
    let mut out = match cfg.workload.as_str() {
        "render_colocated" => sim::render_colocated(&cfg),
        "ic_play" => sim::ic_play(&cfg),
        "serve_admit" => serve::serve_admit(&cfg),
        "serve_telemetry" => serve::serve_telemetry(&cfg),
        _ => unreachable!("validated by parse_args"),
    };
    if cfg.trace {
        let names: Vec<_> = PER_LAYER.iter().map(|&(n, u)| (n, Some(u))).collect();
        complete(&mut out, &names);
    } else {
        let names: Vec<_> = END_TO_END.iter().map(|&n| (n, None)).collect();
        complete(&mut out, &names);
    }
    if out.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        out.fail_check("a metric is not a finite number".into());
    }
    if out.failed > 0 {
        out.fail_check(format!(
            "{} of {} operations failed",
            out.failed, out.attempted
        ));
    }
    out.attempted = out.attempted.max(1);

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        out.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for line in &out.notes {
        println!("  {line}");
    }
    for (name, v, unit) in &out.metrics {
        println!("  {name:<32} {v:>16.4} {}", unit.label());
    }
    let mut meta = vec![
        ("workload".to_string(), out.workload.to_string()),
        ("seed".into(), cfg.seed.to_string()),
        ("seconds".into(), cfg.seconds.to_string()),
        ("trace".into(), (cfg.trace as u8).to_string()),
        ("cpu".into(), host::cpu_model()),
        ("nproc".into(), nproc.to_string()),
        ("rustc".into(), host::rustc().to_string()),
        ("commit".into(), host::commit().to_string()),
        (
            "host_steal_pct".into(),
            format!("{:.2}", host::steal_pct(ticks, host::cpu_ticks())),
        ),
    ];
    meta.append(&mut out.meta);
    let meta_json: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("# meta {{{}}}", meta_json.join(", "));
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit.label())
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if !out.correct {
        std::process::exit(1);
    }
}
