//! The simulator workloads: `render_colocated` (human drivers, co-located
//! instances, stock and optimized interposer) and `ic_play` (trained
//! intelligent clients playing solo).
//!
//! A *pass* runs every cell of the workload from scratch: build the
//! [`CloudSystem`], add instances, start, warm up, reset accounting, run
//! the measured window, drain the records through the input tracker and
//! build the reports. Passes repeat until the run's time is up. The
//! simulator is deterministic, so every pass must produce the same
//! digest, and that digest must match the one pinned for the seed.

use std::cell::RefCell;
use std::time::Instant;

use pictor_apps::world::DetectedObject;
use pictor_apps::AppId;
use pictor_client::ic::{IcTrainConfig, IntelligentClient};
use pictor_core::tracker::InstanceTrack;
use pictor_core::{IcDriver, InputTracker};
use pictor_gfx::Frame;
use pictor_ml::Scratch;
use pictor_render::driver::{ClientDriver, Reaction};
use pictor_render::{CloudSystem, HumanDriver, InstanceReport, Record, SystemConfig};
use pictor_sim::{SeedTree, SimDuration, SimTime};

use crate::digest::Fnv;
use crate::stats::{self, Sorted};
use crate::trace::{self, LayerTotals};
use crate::{Outcome, RunCfg, Unit};

/// Simulated step of the measured loop: `latency_*` on the simulator
/// workloads is the host time one cell takes to advance this much.
const STEP: SimDuration = SimDuration::from_millis(10);

/// Warm-up before every measured window (accounting is reset after it).
const WARMUP: SimDuration = SimDuration::from_secs(1);

/// In the traced `ic_play` run, every Nth decision also runs the vision
/// model alone on the same frame, to split decide time into detect and
/// agent. Sampling keeps the extra work (and the overhead) small.
const DETECT_EVERY: u64 = 8;

/// One cell: `n` co-located instances of `app` under `config`.
struct Cell {
    name: String,
    config: SystemConfig,
    app: AppId,
    n: usize,
    window: SimDuration,
}

thread_local! {
    /// Host nanoseconds of every driver decision in the current pass.
    static DECIDE_NS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// (decide ns, detect ns) pairs of the sampled traced decisions.
    static SPLIT_NS: RefCell<Vec<(f64, f64)>> = const { RefCell::new(Vec::new()) };
}

/// The human reference driver as the benchmark sees it: every decision
/// timed and, when tracing, recorded as an `apps.on_frame` span.
struct TimedHuman(HumanDriver);

impl ClientDriver for TimedHuman {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn on_frame(&mut self, frame: &Frame, truth: &[DetectedObject]) -> Reaction {
        let (r, ns) = trace::timed("apps.on_frame", 0, || self.0.on_frame(frame, truth));
        DECIDE_NS.with(|v| v.borrow_mut().push(ns));
        r
    }
}

/// The intelligent-client driver as the benchmark sees it: every decision
/// timed and, when tracing, recorded as a `client.decide` span; every
/// [`DETECT_EVERY`]th traced decision also times the vision model alone.
struct TimedIc {
    driver: IcDriver,
    ws: Scratch,
    calls: u64,
}

impl ClientDriver for TimedIc {
    fn name(&self) -> &'static str {
        self.driver.name()
    }

    fn on_frame(&mut self, frame: &Frame, truth: &[DetectedObject]) -> Reaction {
        let call = self.calls;
        self.calls += 1;
        let outer = trace::begin("client.on_frame", call);
        let (r, ns) = trace::timed("client.decide", call, || self.driver.on_frame(frame, truth));
        DECIDE_NS.with(|v| v.borrow_mut().push(ns));
        if trace::enabled() && call.is_multiple_of(DETECT_EVERY) {
            // `detect` borrows the model immutably and uses our own scratch,
            // so the client's state (and the digest) is untouched.
            let (_, det) = trace::timed("ml.detect", call, || {
                std::hint::black_box(self.driver.client().vision().detect(frame, &mut self.ws))
            });
            SPLIT_NS.with(|v| v.borrow_mut().push((ns, det)));
        }
        trace::end(outer);
        r
    }
}

/// What one cell run produced.
struct CellRun {
    digest: u64,
    ok: bool,
    inst_sim_s: f64,
    frames_rendered: f64,
    frames_dropped: u64,
    inputs_sent: u64,
    display_ratio_sum: f64,
    records: usize,
}

/// Digest of one instance's simulated results: FPS (server and client),
/// RTT mean and count, frame drops and inputs.
fn instance_digest(h: &mut Fnv, r: &InstanceReport, t: &InstanceTrack) {
    h.u64(r.server_fps.to_bits());
    h.u64(r.client_fps.to_bits());
    h.u64(r.frames_dropped);
    h.u64(r.inputs_sent);
    h.u64(t.rtt_ms.mean().to_bits());
    h.u64(t.rtt_ms.len() as u64);
}

/// Builds a cell's system: new, add every instance, start.
fn build(
    cell: &Cell,
    seeds: &SeedTree,
    drivers: &mut dyn FnMut(usize) -> Box<dyn ClientDriver>,
) -> CloudSystem {
    let cell_seeds = seeds.child(&cell.name);
    let mut sys = CloudSystem::new(cell.config.clone(), cell_seeds);
    for i in 0..cell.n {
        sys.add_instance(cell.app, drivers(i));
    }
    sys.start();
    sys
}

/// Runs one cell end to end, pushing the host time of every simulated
/// [`STEP`] of the measured window (after the warm-up has filled the
/// caches and pools) onto `steps`.
fn run_cell(
    cell: &Cell,
    idx: u64,
    seeds: &SeedTree,
    drivers: &mut dyn FnMut(usize) -> Box<dyn ClientDriver>,
    records: &mut Vec<Record>,
    steps: &mut Vec<f64>,
) -> CellRun {
    let cell_span = trace::begin("cell", idx);
    let mut sys = trace::span("render.setup", idx, || build(cell, seeds, drivers));
    let mut advance = |sys: &mut CloudSystem, from: SimTime, len: SimDuration, timed: bool| {
        let n = len.as_nanos() / STEP.as_nanos();
        for k in 1..=n {
            let deadline = from + SimDuration::from_nanos(k * STEP.as_nanos());
            let ((), ns) = trace::timed("render.run_for", idx, || sys.run_until(deadline));
            if timed {
                steps.push(ns);
            }
        }
    };
    advance(&mut sys, SimTime::ZERO, WARMUP, false);
    sys.reset_accounting();
    let from = sys.now();
    advance(&mut sys, from, cell.window, true);
    let core = trace::begin("core.drain", idx);
    records.clear();
    sys.drain_records_into(records);
    let tracks = InputTracker::new().analyze(records);
    trace::end(core);
    let reports = trace::span("render.reports", idx, || sys.reports());
    trace::end(cell_span);

    let empty = InstanceTrack::default();
    let mut h = Fnv::new();
    let mut run = CellRun {
        digest: 0,
        ok: reports.len() == cell.n,
        inst_sim_s: cell.n as f64 * (WARMUP + cell.window).as_secs_f64(),
        frames_rendered: 0.0,
        frames_dropped: 0,
        inputs_sent: 0,
        display_ratio_sum: 0.0,
        records: records.len(),
    };
    let window_s = cell.window.as_secs_f64();
    for (i, r) in reports.iter().enumerate() {
        let t = tracks.get(&(i as u32)).unwrap_or(&empty);
        instance_digest(&mut h, r, t);
        // Output check: every instance renders and displays frames, and
        // every input tracked to a displayed frame has a finite, positive
        // round-trip time. (A strategy-game player may send no input in a
        // short window; the digest pins those counts exactly.)
        let rtt = t.rtt_ms.mean();
        run.ok &= r.server_fps.is_finite() && r.server_fps > 0.0;
        run.ok &= r.client_fps.is_finite() && r.client_fps > 0.0;
        run.ok &= t.rtt_ms.is_empty() || (rtt.is_finite() && rtt > 0.0);
        run.frames_rendered += r.server_fps * window_s;
        run.frames_dropped += r.frames_dropped;
        run.inputs_sent += r.inputs_sent;
        run.display_ratio_sum += r.client_fps / r.server_fps;
    }
    run.digest = h.finish();
    run
}

/// A simulator workload: its cells and how to build each instance's
/// driver.
struct SimWorkload {
    name: &'static str,
    cells: Vec<Cell>,
    /// Trained intelligent clients, one per app (`ic_play` only).
    ics: Vec<IntelligentClient>,
}

impl SimWorkload {
    fn driver(&self, cell: &Cell, seeds: &SeedTree, i: usize) -> Box<dyn ClientDriver> {
        if self.ics.is_empty() {
            let d_seeds = seeds.child(&cell.name).child_indexed("driver-", i as u64);
            Box::new(TimedHuman(HumanDriver::from_seeds(cell.app, &d_seeds)))
        } else {
            let ic = self
                .ics
                .iter()
                .find(|ic| *ic.app() == cell.app)
                .expect("one trained client per app")
                .clone();
            Box::new(TimedIc {
                driver: IcDriver::new(ic),
                ws: Scratch::new(),
                calls: 0,
            })
        }
    }
}

fn render_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (label, config) in [
        ("stock", SystemConfig::turbovnc_stock()),
        ("optimized", SystemConfig::optimized()),
    ] {
        for n in [1usize, 2, 4] {
            for app in AppId::ALL {
                cells.push(Cell {
                    name: format!("{label}/{n}x{}", app.code()),
                    config: config.clone(),
                    app,
                    n,
                    window: SimDuration::from_secs(3),
                });
            }
        }
    }
    cells
}

/// Three solo episodes per app (each cell seeds its own world), so the
/// pass averages over more game situations than one episode shows.
fn ic_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for episode in 0..3 {
        for app in AppId::ALL {
            cells.push(Cell {
                name: format!("ic/{}/{episode}", app.code()),
                config: SystemConfig::turbovnc_stock(),
                app,
                n: 1,
                window: SimDuration::from_secs(10),
            });
        }
    }
    cells
}

/// Trains one intelligent client per app with the default configuration.
fn train_all(seeds: &SeedTree) -> Vec<IntelligentClient> {
    AppId::ALL
        .iter()
        .map(|&app| {
            IntelligentClient::train(app, &seeds.child("ic-train"), IcTrainConfig::default())
        })
        .collect()
}

/// `render_colocated`.
pub fn render_colocated(cfg: &RunCfg) -> Outcome {
    let seeds = SeedTree::new(cfg.seed);
    let w = SimWorkload {
        name: "render_colocated",
        cells: render_cells(),
        ics: Vec::new(),
    };
    // Set-up: build and start every cell of the batch, 21 times.
    let mut setups = Vec::new();
    for _ in 0..21 {
        let t = Instant::now();
        for cell in &w.cells {
            let sys = build(cell, &seeds, &mut |i| w.driver(cell, &seeds, i));
            std::hint::black_box(sys.now());
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    run_sim(cfg, &w, &seeds, setups, Vec::new())
}

/// `ic_play`.
pub fn ic_play(cfg: &RunCfg) -> Outcome {
    let seeds = SeedTree::new(cfg.seed);
    // Set-up: train the six clients, three times (training is
    // deterministic, so every repetition yields the same clients).
    let mut setups = Vec::new();
    let mut per_app = Vec::new();
    let mut ics = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        ics = train_all(&seeds);
        let s = t.elapsed().as_secs_f64();
        setups.push(s);
        per_app.push(s / AppId::ALL.len() as f64);
    }
    let w = SimWorkload {
        name: "ic_play",
        cells: ic_cells(),
        ics,
    };
    run_sim(cfg, &w, &seeds, setups, per_app)
}

/// The measured loop shared by both simulator workloads.
fn run_sim(
    cfg: &RunCfg,
    w: &SimWorkload,
    seeds: &SeedTree,
    setups: Vec<f64>,
    train_s_per_app: Vec<f64>,
) -> Outcome {
    let mut out = Outcome::new(w.name);
    let mut records = Vec::new();
    let mut steps = Vec::new();
    let mut step_reps = Vec::new();
    let mut decide_reps = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut pass_rates = Vec::new();
    let mut pass_decide_rates = Vec::new();
    let mut pass_digests = Vec::new();
    let mut play_wall = 0.0;
    let mut sim_total = 0.0;
    let mut last;
    DECIDE_NS.with(|v| v.borrow_mut().clear());
    SPLIT_NS.with(|v| v.borrow_mut().clear());
    let deadline = Instant::now() + cfg.duration();
    // In the traced run the first half of the time runs untraced, so the
    // tracing overhead is measured on the same process and inputs.
    let trace_from = cfg.trace.then(|| Instant::now() + cfg.duration() / 2);
    let mut untraced_rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut traced_sim = 0.0;
    let mut traced_wall = 0.0;
    let mut traced_passes = 0u64;
    loop {
        let tracing = trace_from.is_some_and(|t| Instant::now() >= t);
        trace::set_enabled(tracing);
        let t = Instant::now();
        let mut h = Fnv::new();
        let mut sim_s = 0.0;
        let mut agg = CellRun {
            digest: 0,
            ok: true,
            inst_sim_s: 0.0,
            frames_rendered: 0.0,
            frames_dropped: 0,
            inputs_sent: 0,
            display_ratio_sum: 0.0,
            records: 0,
        };
        for (idx, cell) in w.cells.iter().enumerate() {
            let run = run_cell(
                cell,
                idx as u64,
                seeds,
                &mut |i| w.driver(cell, seeds, i),
                &mut records,
                &mut steps,
            );
            out.attempted += 1;
            if !run.ok {
                out.failed += 1;
                if out.failed == 1 {
                    out.note(format!("cell {} failed its output check", cell.name));
                }
            }
            h.u64(run.digest);
            sim_s += run.inst_sim_s;
            agg.ok &= run.ok;
            agg.frames_rendered += run.frames_rendered;
            agg.frames_dropped += run.frames_dropped;
            agg.inputs_sent += run.inputs_sent;
            agg.display_ratio_sum += run.display_ratio_sum;
            agg.records += run.records;
        }
        let wall = t.elapsed().as_secs_f64();
        let decide: Vec<f64> =
            DECIDE_NS.with(|v| v.borrow_mut().drain(..).map(|ns| ns / 1e3).collect());
        let decisions = decide.len();
        decide_reps.push(decide);
        step_reps.push(steps.drain(..).map(|ns| ns / 1e3).collect());
        if pass_rates.is_empty() {
            // Every pass repeats the same work, so the first pass reaches the
            // workload's peak; later growth would be the benchmark's own
            // sample buffers.
            peak_rss_mb = crate::host::peak_rss_mb();
        }
        pass_digests.push(h.finish());
        if tracing {
            traced_rates.push(sim_s / wall);
            traced_sim += sim_s;
            traced_wall += wall;
            traced_passes += 1;
        } else {
            untraced_rates.push(sim_s / wall);
        }
        pass_rates.push(sim_s / wall);
        pass_decide_rates.push(decisions as f64 / wall);
        play_wall += wall;
        sim_total += sim_s;
        last = agg;
        if Instant::now() >= deadline {
            break;
        }
    }
    trace::set_enabled(false);
    let spans = trace::take();

    // Output checks: every pass identical, and equal to the pinned digest.
    let digest = pass_digests[0];
    if pass_digests.iter().any(|&d| d != digest) {
        out.fail_check(format!(
            "pass digests differ within the run: {pass_digests:x?}"
        ));
    }
    crate::digest::check(&mut out, w.name, cfg.seed, digest);

    let decide = stats::Reps::new(decide_reps);
    let steps = stats::Reps::new(step_reps);
    out.meta("passes", pass_rates.len());
    out.meta("cells_per_pass", w.cells.len());
    out.meta("instance_sim_s_total", format!("{sim_total:.1}"));
    out.meta("play_wall_s", format!("{play_wall:.3}"));
    out.meta(
        "sim_s_per_wall_s_spread",
        format!("{:.4}", stats::iqr_share(&pass_rates)),
    );
    out.meta("setup_reps", setups.len());
    out.meta("setup_spread", format!("{:.4}", stats::iqr_share(&setups)));
    out.samples("decide", &decide);
    out.samples("step", &steps);

    if !cfg.trace {
        out.metric("setup_s", stats::median(&setups), Unit::S);
        out.metric(
            "sim_s_per_wall_s",
            stats::median(&pass_rates),
            Unit::SimPerWall,
        );
        out.metric("decide_p50_us", decide.pct(0.5), Unit::Us);
        out.metric("decide_p99_us", decide.pct(0.99), Unit::Us);
        out.metric("req_per_s", stats::median(&pass_decide_rates), Unit::PerS);
        out.metric("latency_p50_us", steps.pct(0.5), Unit::Us);
        out.metric("latency_p99_us", steps.pct(0.99), Unit::Us);
        out.metric("latency_p999_us", steps.pct(0.999), Unit::Us);
        out.metric("peak_rss_mb", peak_rss_mb, Unit::Mb);
        return out;
    }

    // Per-layer numbers from the traced half.
    let t = trace::totals(&spans);
    let get = |n: &str| t.get(n).copied().unwrap_or_default();
    let cells = get("cell");
    let render_self =
        get("render.setup").self_ns + get("render.run_for").self_ns + get("render.reports").self_ns;
    let driver = get("apps.on_frame").total_ns + get("client.on_frame").total_ns;
    let core = get("core.drain");
    let passes = traced_passes.max(1) as f64;
    let agg = last;
    let inst = w.cells.iter().map(|c| c.n).sum::<usize>() as f64;
    let covered = render_self + driver + core.total_ns;
    out.metric(
        "render.self_ms_per_sim_s",
        render_self as f64 / 1e6 / traced_sim.max(f64::MIN_POSITIVE),
        Unit::MsPerSimS,
    );
    out.metric(
        "render.setup_ms",
        stats::median(&setup_ms(&spans)),
        Unit::Ms,
    );
    out.metric(
        "render.frames_rendered",
        agg.frames_rendered.round(),
        Unit::Count,
    );
    out.metric(
        "render.frames_dropped",
        agg.frames_dropped as f64,
        Unit::Count,
    );
    out.metric(
        "render.display_ratio",
        agg.display_ratio_sum / inst,
        Unit::Ratio,
    );
    out.metric("render.inputs_sent", agg.inputs_sent as f64, Unit::Count);
    let human = durations(&spans, "apps.on_frame");
    out.metric(
        "apps.on_frame_calls",
        human.len() as f64 / passes,
        Unit::Count,
    );
    out.metric("apps.on_frame_us_p50", human.pct(0.5), Unit::Us);
    let decide_t = durations(&spans, "client.decide");
    out.metric(
        "client.decide_calls",
        decide_t.len() as f64 / passes,
        Unit::Count,
    );
    out.metric("client.decide_us_p50", decide_t.pct(0.5), Unit::Us);
    out.metric("client.decide_us_p99", decide_t.pct(0.99), Unit::Us);
    let split = SPLIT_NS.with(|v| std::mem::take(&mut *v.borrow_mut()));
    let detect = Sorted::new(split.iter().map(|&(_, d)| d / 1e3).collect());
    let agent = Sorted::new(split.iter().map(|&(c, d)| (c - d).max(0.0) / 1e3).collect());
    out.metric("ml.detect_us_p50", detect.pct(0.5), Unit::Us);
    out.metric("ml.agent_us_p50", agent.pct(0.5), Unit::Us);
    out.metric(
        "ml.train_s_per_app",
        stats::median(&train_s_per_app),
        Unit::S,
    );
    out.metric(
        "core.drain_ms",
        core.total_ns as f64 / 1e6 / passes,
        Unit::Ms,
    );
    out.metric("core.records", agg.records as f64, Unit::Count);
    out.metric(
        "trace.coverage_pct",
        100.0 * covered as f64 / cells.total_ns.max(1) as f64,
        Unit::Pct,
    );
    out.metric(
        "trace.overhead_pct",
        overhead_pct(&untraced_rates, &traced_rates),
        Unit::Pct,
    );
    out.note(format!(
        "traced play: {:.3} s wall over {} passes; render self {:.1}%, driver {:.1}%, core {:.1}%, cell glue {:.1}%",
        traced_wall,
        traced_passes,
        pct(render_self, cells),
        pct(driver, cells),
        pct(core.total_ns, cells),
        pct(cells.self_ns, cells),
    ));
    out.trace_counts(spans.len(), untraced_rates.len(), traced_rates.len());
    crate::write_trace(&mut out, cfg, &spans);
    out
}

fn pct(part: u64, whole: LayerTotals) -> f64 {
    100.0 * part as f64 / whole.total_ns.max(1) as f64
}

/// Durations, in microseconds, of every span called `name`.
fn durations(spans: &[trace::Span], name: &str) -> Sorted {
    Sorted::new(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect(),
    )
}

/// Render set-up time summed per pass, milliseconds (cell ids restart at
/// zero on every pass).
fn setup_ms(spans: &[trace::Span]) -> Vec<f64> {
    let mut per_pass: Vec<f64> = Vec::new();
    for s in spans.iter().filter(|s| s.name == "render.setup") {
        if s.req == 0 {
            per_pass.push(0.0);
        }
        if let Some(last) = per_pass.last_mut() {
            *last += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
    }
    per_pass
}

/// Slowdown of the traced passes against the untraced ones, percent of
/// the untraced rate (medians of the per-pass rates).
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let u = stats::median(untraced);
    let t = stats::median(traced);
    if u <= 0.0 || t <= 0.0 {
        return 0.0;
    }
    100.0 * (u / t - 1.0)
}
