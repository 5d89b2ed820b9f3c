//! The serving workloads: `serve_admit` (closed loop, oversubscribed,
//! one shard, journal write-through) and `serve_telemetry` (open loop
//! over a fixed ladder of rates, under-subscribed, four shards, auth
//! token, reads outnumber writes).
//!
//! Load comes from the benchmark thread; the daemon runs on one more
//! thread ([`run_daemon`]). Both run on a virtual clock, so the daemon's
//! decisions are a pure function of the frames it receives, and every
//! reply can be checked.
//!
//! The per-layer numbers come from replaying, on the benchmark thread,
//! the exact frames and journal the timed run produced through
//! [`Msg::encode_frame`], [`ServeCore::handle_frame`],
//! [`JournalWriter::record_routed`] and the [`LiveFleet`] calls the daemon
//! makes for each event.
//!
//! [`LiveFleet`]: pictor_core::fleet::LiveFleet

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

use pictor_apps::AppId;
use pictor_core::fleet::{Admission, FleetEngine};
use pictor_serve::{
    decode_journal_entries, replay, run_daemon, serve_engine, shard_engines, ChannelConn, Conn,
    DaemonMsg, ErrCode, IngressEvent, JournalEntry, JournalWriter, Msg, Outcome as Verdict,
    ReplySink, ServeCore, ServeOptions, ServeOutcome, FRAME_HEADER_BYTES,
};
use pictor_sim::rng::{exponential, lognormal_mean_cv};
use pictor_sim::SeedTree;
use rand::Rng;

use crate::stats::{self, Sorted};
use crate::trace;
use crate::{Outcome, RunCfg, Unit};

const NS: u64 = 1_000_000_000;

/// The connection id the benchmark's client uses.
const CONN: u32 = 1;

// ---------------------------------------------------------------------------
// serve_admit: shape
// ---------------------------------------------------------------------------

/// 512 servers × 8 slots, as `pictor-load --full`.
const ADMIT_SERVERS: usize = 512;
const ADMIT_SLOTS: usize = 8;
/// Virtual horizon one episode drives, seconds.
const ADMIT_SECS: u64 = 30;
const ADMIT_CLIENTS: usize = 10_000;
const ADMIT_FLASH: usize = 2_000;
const ADMIT_FLASH_AT: u64 = 15;
/// Engine epoch. Short enough that the requests paying an epoch step
/// (~0.3% of them) sit inside the p999 tail rather than straddling it.
const ADMIT_EPOCH_MS: u64 = 250;
/// Requests per latency window: percentiles are exact within a window and
/// the median over windows is reported. 10 000 is the fewest that leave
/// ten samples beyond p99.9.
const ADMIT_WINDOW: usize = 10_000;
/// Telemetry poll on every Nth admission; fleet snapshot every N seconds.
const ADMIT_POLL_EVERY: u64 = 16;
const ADMIT_SNAP_SECS: u64 = 5;

// ---------------------------------------------------------------------------
// serve_telemetry: shape
// ---------------------------------------------------------------------------

/// 64 servers × 8 slots behind 4 shards with an auth token, the README's
/// deployment shape.
const TELE_SERVERS: usize = 64;
const TELE_SLOTS: usize = 8;
const TELE_SHARDS: usize = 4;
const TELE_TOKEN: &str = "perfbench-token";
/// Virtual open rate and mean session: ~128 resident of 512 slots.
const TELE_OPENS_PER_VSEC: f64 = 16.0;
const TELE_SESSION_SECS: f64 = 8.0;
/// Poll cadence per admitted session, and snapshot cadence, virtual ns.
const TELE_POLL_NS: u64 = NS;
const TELE_SNAP_NS: u64 = NS / 2;
/// The offered-rate ladder, requests per wall second.
pub const LADDER: [u64; 6] = [5_000, 10_000, 20_000, 40_000, 80_000, 160_000];
/// The rung the end-to-end latency metrics are read at.
pub const REFERENCE_RATE: u64 = 20_000;
/// Share of the measured time the reference rung gets; the other rungs
/// split the rest evenly.
const REFERENCE_SHARE: f64 = 0.4;
/// Requests per latency window of the reference rung.
const WINDOW: usize = 12_000;
/// Latency limit a rung must meet at p99, microseconds.
const LIMIT_P99_US: f64 = 1_000.0;

fn journal_path(name: &str, seed: u64) -> PathBuf {
    crate::host::scratch_dir().join(format!("{name}-seed{seed}.journal"))
}

/// What kind of request a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hello,
    Open,
    Poll,
    Snapshot,
    Seal,
}

/// One request frame as sent, with its measured latency (when it is a
/// measured request) — the stream the layer replay re-runs.
#[derive(Debug, Clone)]
struct Sent {
    kind: Kind,
    body: Vec<u8>,
    latency_us: Option<f64>,
}

/// Client-side ledger of one run.
#[derive(Debug, Default, Clone, Copy)]
struct Ledger {
    opens: u64,
    admitted: u64,
    rejected: u64,
    parked: u64,
    past_horizon: u64,
    bad_app: u64,
    polls: u64,
    stale_polls: u64,
    snapshots: u64,
}

/// Checks a sealed daemon against the client ledger and its own
/// invariants; replays the journal when `replay_journal` is set.
fn check_sealed(
    out: &mut Outcome,
    engine: &FleetEngine,
    shards: usize,
    sealed: &ServeOutcome,
    report_json: &str,
    ledger: &Ledger,
    journal: Option<&Path>,
) {
    let r = &sealed.report;
    let l = ledger;
    let sum = l.admitted + l.rejected + l.parked + l.past_horizon + l.bad_app;
    if sum != l.opens {
        out.fail_check(format!(
            "client ledger: sent {} opens but saw {sum} decisions",
            l.opens
        ));
    }
    let ing = &r.ingress;
    if (
        ing.opens,
        ing.admitted,
        ing.rejected,
        ing.parked,
        ing.past_horizon,
        ing.bad_app,
    ) != (
        l.opens,
        l.admitted,
        l.rejected,
        l.parked,
        l.past_horizon,
        l.bad_app,
    ) {
        out.fail_check(format!(
            "daemon ingress {ing:?} disagrees with the client ledger {l:?}"
        ));
    }
    if ing.polls != l.polls || ing.snapshots != l.snapshots {
        out.fail_check("daemon poll/snapshot counts disagree with the client".into());
    }
    if !r.decisions_balance() {
        out.fail_check("ServeReport::decisions_balance() does not hold".into());
    }
    if r.to_json() != report_json {
        out.fail_check("the Report frame differs from the sealed report".into());
    }
    if let Some(path) = journal {
        let bytes = std::fs::read(path).expect("read the write-through journal");
        match decode_journal_entries(&bytes) {
            Err(e) => out.fail_check(format!("journal does not decode: {e}")),
            Ok(entries) => {
                let again = replay(engine, shards, &entries, 1);
                if again.report.to_json() != r.to_json() {
                    out.fail_check("replay() of the journal does not reproduce the report".into());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// serve_admit
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Join(u32),
    Poll(u64),
    Snap,
}

/// Everything one `serve_admit` episode measured.
struct Episode {
    setup_s: f64,
    drive_s: f64,
    latencies_us: Vec<f64>,
    decide_us: Vec<f64>,
    ledger: Ledger,
    report_json: String,
    sent: Vec<Sent>,
    journal_bytes: u64,
}

fn admit_engine(seed: u64) -> FleetEngine {
    let epochs = (ADMIT_SECS + 10) * 1_000 / ADMIT_EPOCH_MS;
    serve_engine(
        ADMIT_SERVERS,
        ADMIT_SLOTS,
        epochs,
        ADMIT_EPOCH_MS,
        seed,
        ADMIT_SERVERS * 2,
    )
}

/// Sends one request on the closed-loop connection and waits for its
/// reply, timing the round trip. When `record` is set the frame joins the
/// stream the layer replay re-runs, under the same request id as its span.
fn round_trip(
    conn: &mut ChannelConn,
    msg: &Msg,
    kind: Kind,
    record: bool,
    sent: &mut Vec<Sent>,
) -> Result<(Msg, f64), String> {
    let (reply, ns) = trace::timed("serve.round_trip", sent.len() as u64, || {
        conn.send(msg).map_err(|e| format!("send: {e}"))?;
        conn.recv().map_err(|e| format!("recv: {e}"))
    });
    let reply = reply?;
    let us = ns / 1e3;
    if record {
        sent.push(Sent {
            kind,
            body: msg.encode_frame()[FRAME_HEADER_BYTES..].to_vec(),
            latency_us: matches!(kind, Kind::Open | Kind::Poll | Kind::Snapshot).then_some(us),
        });
    }
    Ok((reply, us))
}

/// One closed-loop episode: a fresh daemon, the seeded client population
/// over the virtual horizon, then the seal (outside the timed part).
fn admit_episode(out: &mut Outcome, seed: u64, record: bool, check_journal: bool) -> Episode {
    let t_setup = Instant::now();
    let engine = admit_engine(seed);
    let path = journal_path("serve_admit", seed);
    let _ = std::fs::remove_file(&path);
    let opts = ServeOptions {
        virtual_clock: true,
        journal_path: Some(path.clone()),
        ..ServeOptions::default()
    };
    let horizon_ns = ADMIT_SECS * NS;
    std::thread::scope(|s| {
        let (tx, rx) = channel();
        let daemon = s.spawn(|| run_daemon(&engine, &opts, rx));
        let mut conn = ChannelConn::connect(CONN, &tx);
        drop(tx);
        let mut sent = Vec::new();
        let mut lat = Vec::new();
        let mut decide = Vec::new();
        let mut ledger = Ledger::default();
        let mut failed = 0u64;
        let hello = Msg::Hello {
            client: seed,
            token: String::new(),
        };
        let epoch_ns = match round_trip(&mut conn, &hello, Kind::Hello, record, &mut sent) {
            Ok((Msg::HelloAck { epoch_ns, .. }, _)) => epoch_ns.max(1),
            other => panic!("daemon did not answer Hello: {other:?}"),
        };
        let setup_s = t_setup.elapsed().as_secs_f64();

        // The client population, as pictor-load's closed loop: join, play
        // the granted session, think, rejoin; rejected clients retry after
        // a think; flash clients join once.
        let t_drive = Instant::now();
        let mut rng = SeedTree::new(seed)
            .child("perfbench")
            .stream("admit-clients");
        let mut heap: BinaryHeap<Reverse<(u64, u64, Ev)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |heap: &mut BinaryHeap<_>, t: u64, ev: Ev| {
            if t < horizon_ns {
                heap.push(Reverse((t, seq, ev)));
                seq += 1;
            }
        };
        for c in 0..ADMIT_CLIENTS {
            let t = (exponential(&mut rng, 4.0) * 1e9) as u64;
            push(&mut heap, t, Ev::Join(c as u32));
        }
        for f in 0..ADMIT_FLASH {
            push(
                &mut heap,
                ADMIT_FLASH_AT * NS,
                Ev::Join((ADMIT_CLIENTS + f) as u32),
            );
        }
        push(&mut heap, ADMIT_SNAP_SECS * NS, Ev::Snap);
        let mut req = 0u64;
        while let Some(Reverse((t, _, ev))) = heap.pop() {
            let think = |rng: &mut rand::rngs::SmallRng| (exponential(rng, 4.0) * 1e9) as u64;
            match ev {
                Ev::Join(id) => {
                    let app = AppId::ALL[rng.gen_range(0..AppId::ALL.len())];
                    let duration_ns = (lognormal_mean_cv(&mut rng, 8.0, 0.5) * 1e9).round() as u64;
                    req += 1;
                    let msg = Msg::Open {
                        req,
                        at_ns: t,
                        duration_ns,
                        app_code: app.code().into(),
                    };
                    ledger.opens += 1;
                    let (reply, us) =
                        match round_trip(&mut conn, &msg, Kind::Open, record, &mut sent) {
                            Ok(x) => x,
                            Err(e) => {
                                out.note(format!("transport error: {e}"));
                                failed += 1;
                                break;
                            }
                        };
                    lat.push(us);
                    decide.push(us);
                    let Msg::Decision {
                        req: r,
                        outcome,
                        session,
                        start_epoch,
                        end_epoch,
                        ..
                    } = reply
                    else {
                        failed += 1;
                        continue;
                    };
                    if r != req {
                        failed += 1;
                    }
                    let one_shot = id as usize >= ADMIT_CLIENTS;
                    match outcome {
                        Verdict::Admitted => {
                            ledger.admitted += 1;
                            if ledger.admitted.is_multiple_of(ADMIT_POLL_EVERY) {
                                let mid = (start_epoch + end_epoch) * epoch_ns / 2;
                                push(&mut heap, mid.max(t), Ev::Poll(session));
                            }
                            if !one_shot {
                                let end = (end_epoch * epoch_ns).max(t);
                                let th = think(&mut rng);
                                push(&mut heap, end + th, Ev::Join(id));
                            }
                        }
                        Verdict::Parked => {
                            ledger.parked += 1;
                            if !one_shot {
                                let th = think(&mut rng);
                                push(&mut heap, t + duration_ns + th, Ev::Join(id));
                            }
                        }
                        Verdict::Rejected => {
                            ledger.rejected += 1;
                            if !one_shot {
                                let th = think(&mut rng);
                                push(&mut heap, t + th, Ev::Join(id));
                            }
                        }
                        Verdict::PastHorizon => ledger.past_horizon += 1,
                        Verdict::UnknownApp => ledger.bad_app += 1,
                    }
                }
                Ev::Poll(session) => {
                    ledger.polls += 1;
                    let msg = Msg::Poll { at_ns: t, session };
                    match round_trip(&mut conn, &msg, Kind::Poll, record, &mut sent) {
                        Ok((Msg::Telemetry { session: s, .. }, us)) if s == session => lat.push(us),
                        Ok((
                            Msg::Error {
                                code: ErrCode::UnknownSession,
                                ..
                            },
                            us,
                        )) => {
                            ledger.stale_polls += 1;
                            lat.push(us);
                        }
                        _ => failed += 1,
                    }
                }
                Ev::Snap => {
                    ledger.snapshots += 1;
                    let msg = Msg::Snapshot { at_ns: t };
                    match round_trip(&mut conn, &msg, Kind::Snapshot, record, &mut sent) {
                        Ok((Msg::SnapshotRep { .. }, us)) => lat.push(us),
                        _ => failed += 1,
                    }
                    push(&mut heap, t + ADMIT_SNAP_SECS * NS, Ev::Snap);
                }
            }
        }
        let drive_s = t_drive.elapsed().as_secs_f64();

        // Seal, outside the timed part.
        let seal = Msg::Seal { at_ns: horizon_ns };
        let report_json = match round_trip(&mut conn, &seal, Kind::Seal, record, &mut sent) {
            Ok((Msg::Report { json }, _)) => json,
            other => {
                out.fail_check(format!("seal did not return a report: {other:?}"));
                String::new()
            }
        };
        drop(conn);
        let sealed = daemon.join().expect("daemon thread panicked");
        out.attempted += ledger.opens + ledger.polls + ledger.snapshots;
        out.failed += failed;
        check_sealed(
            out,
            &engine,
            1,
            &sealed,
            &report_json,
            &ledger,
            check_journal.then_some(path.as_path()),
        );
        Episode {
            setup_s,
            drive_s,
            latencies_us: lat,
            decide_us: decide,
            ledger,
            report_json,
            sent,
            journal_bytes: std::fs::metadata(&path).map_or(0, |m| m.len()),
        }
    })
}

/// `serve_admit`.
pub fn serve_admit(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::new("serve_admit");
    // The client and the daemon thread (spawned later, so it inherits the
    // mask) share one CPU. On a small VM a hand-off to the other, idle
    // vCPU waits on the hypervisor scheduling it, and that wait's noise
    // swamps the tail percentiles (README, "Host noise").
    let pinned = crate::host::pin_to_one_cpu();
    out.meta(
        "pinned_cpu",
        pinned.map_or("none".into(), |c| c.to_string()),
    );
    let deadline = Instant::now() + cfg.duration();
    let trace_from = Instant::now() + cfg.duration() / 2;
    let mut setups = Vec::new();
    let mut lat = Vec::new();
    let mut decide = Vec::new();
    let mut rates = Vec::new();
    let mut vrates = Vec::new();
    let mut requests = 0u64;
    let mut rates_untraced = Vec::new();
    let mut rates_traced = Vec::new();
    let mut first_report: Option<String> = None;
    let mut traced: Option<Episode> = None;
    let mut peak_rss_mb = 0.0;
    loop {
        // In the traced run every episode past half time records its frame
        // stream (the tracing cost); the first of them feeds the replay.
        let record = cfg.trace && Instant::now() >= trace_from;
        trace::set_enabled(record);
        let ep = admit_episode(&mut out, cfg.seed, record, rates.is_empty());
        if rates.is_empty() {
            // Episodes repeat the same work: the first one reaches the
            // workload's peak, before the benchmark's sample buffers grow.
            peak_rss_mb = crate::host::peak_rss_mb();
        }
        let n = ep.latencies_us.len() as u64;
        let rate = n as f64 / ep.drive_s;
        if record {
            rates_traced.push(rate);
        } else {
            rates_untraced.push(rate);
        }
        rates.push(rate);
        vrates.push(ADMIT_SECS as f64 / ep.drive_s);
        setups.push(ep.setup_s);
        requests += n;
        match &first_report {
            None => first_report = Some(ep.report_json.clone()),
            Some(r) if *r != ep.report_json => {
                out.fail_check("episodes with the same seed sealed different reports".into())
            }
            Some(_) => {}
        }
        let done = Instant::now() >= deadline;
        lat.extend(stats::windows(&ep.latencies_us, ADMIT_WINDOW));
        decide.extend(stats::windows(&ep.decide_us, ADMIT_WINDOW));
        if record && traced.is_none() {
            traced = Some(ep);
        }
        if done && (!cfg.trace || traced.is_some()) {
            break;
        }
    }
    let lat = stats::Reps::new(lat);
    let decide = stats::Reps::new(decide);
    out.meta("episodes", rates.len());
    out.meta("requests", requests);
    out.meta("setup_reps", setups.len());
    out.meta(
        "req_per_s_spread",
        format!("{:.4}", stats::iqr_share(&rates)),
    );
    out.samples("latency", &lat);
    out.samples("decide", &decide);
    if !cfg.trace {
        out.metric("setup_s", stats::median(&setups), Unit::S);
        out.metric("sim_s_per_wall_s", stats::median(&vrates), Unit::SimPerWall);
        out.metric("decide_p50_us", decide.pct(0.5), Unit::Us);
        out.metric("decide_p99_us", decide.pct(0.99), Unit::Us);
        out.metric("req_per_s", stats::median(&rates), Unit::PerS);
        out.metric("latency_p50_us", lat.pct(0.5), Unit::Us);
        out.metric("latency_p99_us", lat.pct(0.99), Unit::Us);
        out.metric("latency_p999_us", lat.pct(0.999), Unit::Us);
        out.metric("peak_rss_mb", peak_rss_mb, Unit::Mb);
        return out;
    }
    let ep = traced.expect("a traced episode");
    let engine = admit_engine(cfg.seed);
    let opts = ServeOptions {
        virtual_clock: true,
        journal_path: Some(journal_path("serve_admit-replay", cfg.seed)),
        ..ServeOptions::default()
    };
    let bytes = std::fs::read(journal_path("serve_admit", cfg.seed)).expect("read the journal");
    let entries = decode_journal_entries(&bytes).expect("decode the journal");
    trace::set_enabled(true);
    let layers = replay_layers(&mut out, &engine, &opts, &ep.sent, &entries);
    trace::set_enabled(false);
    let _ = std::fs::remove_file(journal_path("serve_admit-replay", cfg.seed));
    let spans = trace::take();
    out.trace_counts(spans.len(), rates_untraced.len(), rates_traced.len());
    crate::write_trace(&mut out, cfg, &spans);
    layers.report(&mut out, lat.pct(0.5), &ep.ledger, ep.journal_bytes);
    out.metric(
        "trace.overhead_pct",
        crate::sim::overhead_pct(&rates_untraced, &rates_traced),
        Unit::Pct,
    );
    out.note(format!(
        "traced episode: {} requests; journal {} bytes",
        ep.latencies_us.len(),
        ep.journal_bytes
    ));
    out
}

// ---------------------------------------------------------------------------
// layer replay (both serve workloads)
// ---------------------------------------------------------------------------

/// Per-layer samples from replaying one run's frames and journal.
#[derive(Default)]
struct Layers {
    encode_ns: Vec<f64>,
    frame_bytes: Vec<f64>,
    handle_us: Vec<f64>,
    residual_us: Vec<f64>,
    /// Per measured request: request encode + reply encode, µs.
    codec_us: Vec<f64>,
    offer_us: Vec<f64>,
    step_us: Vec<f64>,
    telemetry_us: Vec<f64>,
    snapshot_us: Vec<f64>,
    record_ns: Vec<f64>,
    journal_bytes: u64,
    journal_events: u64,
    fleet_offered: u64,
    fleet_admitted: u64,
}

/// Replays `sent` through the codec and [`ServeCore::handle_frame`], and
/// `entries` through [`JournalWriter`] and per-shard [`LiveFleet`]s, each
/// call in a span whose request id is the frame or journal index.
///
/// [`LiveFleet`]: pictor_core::fleet::LiveFleet
fn replay_layers(
    out: &mut Outcome,
    engine: &FleetEngine,
    opts: &ServeOptions,
    sent: &[Sent],
    entries: &[JournalEntry],
) -> Layers {
    let us = |ns: f64| ns / 1e3;
    let mut l = Layers::default();
    let engines = shard_engines(engine, opts.shards);
    // Codec + daemon core, frame by frame, in the order the run sent them.
    {
        let mut core = ServeCore::new(&engines, opts);
        let mut replies = Vec::new();
        for (i, s) in sent.iter().enumerate() {
            let req = i as u64;
            let msg = Msg::decode_body(&s.body).expect("replayed frames decode");
            let (frame, enc_req) = trace::timed("protocol.encode", req, || {
                std::hint::black_box(msg.encode_frame())
            });
            replies.clear();
            let ((), hf) = trace::timed("daemon.handle_frame", req, || {
                core.handle_frame(CONN, &s.body, &mut replies);
            });
            let mut enc_rep = 0.0;
            let mut rep_bytes = 0usize;
            for (_, m) in &replies {
                let (f, ns) = trace::timed("protocol.encode_reply", req, || {
                    std::hint::black_box(m.encode_frame())
                });
                enc_rep += ns;
                rep_bytes += f.len();
            }
            l.encode_ns.push(enc_req);
            if let Some(lat) = s.latency_us {
                l.handle_us.push(us(hf));
                l.codec_us.push(us(enc_req + enc_rep));
                l.frame_bytes.push((frame.len() + rep_bytes) as f64);
                l.residual_us.push(lat - us(enc_req + hf + enc_rep));
            }
            if s.kind == Kind::Seal {
                break;
            }
        }
    }
    // Journal appends, in memory, event by event.
    let mut j = JournalWriter::new();
    for (k, e) in entries.iter().enumerate() {
        let ((), ns) = trace::timed("journal.record", k as u64, || {
            j.record_routed(e.shard, &e.event);
        });
        l.record_ns.push(ns);
    }
    l.journal_events = j.len();
    l.journal_bytes = j.into_bytes().len() as u64;
    // The fleet calls the daemon makes for each journaled event.
    let nshards = engines.len() as u64;
    let mut lives: Vec<_> = engines.iter().map(|e| e.live()).collect();
    let epoch_ns = lives[0].epoch_ns();
    let epochs = engine.epochs;
    let mut where_is: Vec<HashMap<u64, usize>> = vec![HashMap::new(); lives.len()];
    for (k, e) in entries.iter().enumerate() {
        let req = k as u64;
        let shard = e.shard as usize;
        match &e.event {
            IngressEvent::Open {
                at_ns,
                duration_ns,
                app_code,
                ..
            } => {
                let Some(app) = AppId::from_code(app_code) else {
                    continue;
                };
                let spec = app.spec();
                let (a, ns) = trace::timed("fleet.offer_arrival", req, || {
                    lives[shard].offer_arrival(*at_ns, spec, *duration_ns)
                });
                l.offer_us.push(us(ns));
                l.fleet_offered += 1;
                if let Admission::Admitted {
                    session, server, ..
                } = a
                {
                    l.fleet_admitted += 1;
                    where_is[shard].insert(session, server);
                }
            }
            IngressEvent::Poll { at_ns, session, .. } => {
                let ((), ns) = trace::timed("fleet.step_to", req, || lives[shard].step_to(*at_ns));
                l.step_us.push(us(ns));
                if let Some(&server) = where_is[shard].get(&(session / nshards)) {
                    let epoch = (*at_ns / epoch_ns).min(epochs - 1);
                    let (_, ns) = trace::timed("fleet.server_telemetry", req, || {
                        std::hint::black_box(lives[shard].server_telemetry(server, epoch))
                    });
                    l.telemetry_us.push(us(ns));
                }
            }
            IngressEvent::Snapshot { at_ns, .. } => {
                let ((), ns) = trace::timed("fleet.snapshot", req, || {
                    for live in &mut lives {
                        let ((), ns) = trace::timed("fleet.step_to", req, || live.step_to(*at_ns));
                        l.step_us.push(us(ns));
                        std::hint::black_box(live.snapshot());
                    }
                });
                l.snapshot_us.push(us(ns));
            }
            IngressEvent::Seal { .. } => break,
        }
    }
    if l.handle_us.is_empty() {
        out.fail_check("the layer replay saw no measured requests".into());
    }
    l
}

impl Layers {
    /// Emits the per-layer metrics and each layer's share of the
    /// end-to-end median latency `p50_us`.
    fn report(&self, out: &mut Outcome, p50_us: f64, ledger: &Ledger, journal_file: u64) {
        let s = |v: &[f64]| Sorted::new(v.to_vec());
        let enc = s(&self.encode_ns);
        let hf = s(&self.handle_us);
        let res = s(&self.residual_us);
        let codec = s(&self.codec_us);
        let offer = s(&self.offer_us);
        let step = s(&self.step_us);
        let rec = s(&self.record_ns);
        out.metric("protocol.encode_ns_p50", enc.pct(0.5), Unit::Ns);
        out.metric(
            "protocol.bytes_per_req",
            s(&self.frame_bytes).mean(),
            Unit::Bytes,
        );
        out.metric("daemon.handle_frame_us_p50", hf.pct(0.5), Unit::Us);
        out.metric("daemon.handle_frame_us_p99", hf.pct(0.99), Unit::Us);
        out.metric("daemon.handle_frame_us_p999", hf.pct(0.999), Unit::Us);
        out.metric("fleet.offer_arrival_us_p50", offer.pct(0.5), Unit::Us);
        out.metric("fleet.offer_arrival_us_p99", offer.pct(0.99), Unit::Us);
        out.metric("fleet.step_to_calls", step.len() as f64, Unit::Count);
        out.metric("fleet.step_to_us_max", step.max(), Unit::Us);
        out.metric(
            "fleet.server_telemetry_us_p50",
            s(&self.telemetry_us).pct(0.5),
            Unit::Us,
        );
        out.metric(
            "fleet.snapshot_us_p50",
            s(&self.snapshot_us).pct(0.5),
            Unit::Us,
        );
        out.metric(
            "fleet.admit_ratio",
            self.fleet_admitted as f64 / self.fleet_offered.max(1) as f64,
            Unit::Ratio,
        );
        out.metric("journal.record_ns_p50", rec.pct(0.5), Unit::Ns);
        out.metric(
            "journal.bytes_per_event",
            self.journal_bytes as f64 / self.journal_events.max(1) as f64,
            Unit::Bytes,
        );
        out.metric("journal.bytes", self.journal_bytes as f64, Unit::Bytes);
        out.metric("transport.residual_us_p50", res.pct(0.5), Unit::Us);
        out.metric("transport.residual_us_p99", res.pct(0.99), Unit::Us);
        out.meta("handle_frame_samples", hf.len());
        out.meta("residual_samples", res.len());
        if journal_file != self.journal_bytes {
            out.fail_check(format!(
                "journal replay wrote {} bytes, the daemon's file holds {journal_file}",
                self.journal_bytes
            ));
        }
        // Each layer's share of the median request latency. Medians of the
        // parts need not add up to the median of the whole; the remainder
        // is printed rather than hidden.
        let share = |x: f64| 100.0 * x / p50_us.max(f64::MIN_POSITIVE);
        let mut fleet = vec![offer.pct(0.5)];
        if ledger.polls > 0 {
            fleet.push(s(&self.telemetry_us).pct(0.5));
        }
        let fleet_p50 = stats::median(&fleet);
        let journal_us = rec.pct(0.5) / 1e3;
        let daemon_self = (hf.pct(0.5) - fleet_p50 - journal_us).max(0.0);
        let parts = [
            ("protocol", codec.pct(0.5)),
            ("daemon (self)", daemon_self),
            ("fleet", fleet_p50),
            ("journal", journal_us),
            ("transport", res.pct(0.5)),
        ];
        let listed: f64 = parts.iter().map(|p| p.1).sum();
        let line: Vec<String> = parts
            .iter()
            .map(|(n, v)| format!("{n} {v:.2} us ({:.1}%)", share(*v)))
            .collect();
        out.note(format!(
            "share of latency_p50_us {p50_us:.2} us: {}; unattributed {:.1}%",
            line.join(", "),
            100.0 - share(listed)
        ));
        out.metric("share.protocol_pct", share(codec.pct(0.5)), Unit::Pct);
        out.metric("share.daemon_pct", share(hf.pct(0.5)), Unit::Pct);
        out.metric("share.transport_pct", share(res.pct(0.5)), Unit::Pct);
    }
}

// ---------------------------------------------------------------------------
// serve_telemetry
// ---------------------------------------------------------------------------

/// The pre-computed request stream: frame bodies in send order, the
/// virtual time of each, and the reply the daemon must give.
struct Stream {
    kinds: Vec<Kind>,
    bodies: Vec<Vec<u8>>,
    vt_ns: Vec<u64>,
    replies: Vec<Vec<u8>>,
    /// Client ledger of every prefix length: `ledger[i]` covers requests
    /// `0..i`.
    ledger: Vec<Ledger>,
}

fn tele_engine(seed: u64, epochs: u64) -> FleetEngine {
    serve_engine(
        TELE_SERVERS,
        TELE_SLOTS,
        epochs,
        1_000,
        seed,
        TELE_SERVERS * 2,
    )
}

fn tele_opts(journal: Option<PathBuf>) -> ServeOptions {
    ServeOptions {
        virtual_clock: true,
        shards: TELE_SHARDS,
        token: Some(TELE_TOKEN.into()),
        journal_path: journal,
        ..ServeOptions::default()
    }
}

/// Virtual seconds of stream the longest rung needs.
fn tele_vsecs(n_max: usize) -> u64 {
    let per_vsec =
        TELE_OPENS_PER_VSEC * (1.0 + TELE_SESSION_SECS) + NS as f64 / TELE_SNAP_NS as f64;
    (n_max as f64 / per_vsec * 1.3) as u64 + 20
}

/// Generates the seeded stream of `n` requests. Poisson opens; every
/// admitted session is polled each [`TELE_POLL_NS`] while it lasts;
/// snapshots every [`TELE_SNAP_NS`]. A dry run through a [`ServeCore`]
/// resolves the session ids polls carry and yields the expected replies.
fn tele_stream(seed: u64, n: usize, engine: &FleetEngine) -> Stream {
    let mut rng = SeedTree::new(seed)
        .child("perfbench")
        .stream("telemetry-stream");
    // (virtual time, seq, event): 0 = open i, 1 = poll of open i, 2 = snap.
    let mut heap: BinaryHeap<Reverse<(u64, u64, u8, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let first = (exponential(&mut rng, 1.0 / TELE_OPENS_PER_VSEC) * 1e9) as u64;
    heap.push(Reverse((first, seq, 0, 0)));
    seq += 1;
    heap.push(Reverse((TELE_SNAP_NS, seq, 2, 0)));
    seq += 1;
    let engines = shard_engines(engine, TELE_SHARDS);
    let mut core = ServeCore::new(&engines, &tele_opts(None));
    let mut out = Vec::new();
    let hello = Msg::Hello {
        client: seed,
        token: TELE_TOKEN.into(),
    };
    core.handle_frame(CONN, &hello.encode_frame()[FRAME_HEADER_BYTES..], &mut out);
    let mut s = Stream {
        kinds: Vec::with_capacity(n),
        bodies: Vec::with_capacity(n),
        vt_ns: Vec::with_capacity(n),
        replies: Vec::with_capacity(n),
        ledger: vec![Ledger::default()],
    };
    // open index → (session id, end of its grant in virtual ns)
    let mut sessions: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut ledger = Ledger::default();
    while s.bodies.len() < n {
        let Reverse((t, _, what, idx)) = heap.pop().expect("the stream never runs dry");
        let msg = match what {
            0 => {
                let gap = (exponential(&mut rng, 1.0 / TELE_OPENS_PER_VSEC) * 1e9) as u64;
                heap.push(Reverse((t + gap, seq, 0, idx + 1)));
                seq += 1;
                let app = AppId::ALL[rng.gen_range(0..AppId::ALL.len())];
                let dur = (lognormal_mean_cv(&mut rng, TELE_SESSION_SECS, 0.5) * 1e9) as u64;
                ledger.opens += 1;
                Msg::Open {
                    req: idx + 1,
                    at_ns: t,
                    duration_ns: dur,
                    app_code: app.code().into(),
                }
            }
            1 => {
                let (session, end) = sessions[&idx];
                if t >= end {
                    continue;
                }
                heap.push(Reverse((t + TELE_POLL_NS, seq, 1, idx)));
                seq += 1;
                ledger.polls += 1;
                Msg::Poll { at_ns: t, session }
            }
            _ => {
                heap.push(Reverse((t + TELE_SNAP_NS, seq, 2, 0)));
                seq += 1;
                ledger.snapshots += 1;
                Msg::Snapshot { at_ns: t }
            }
        };
        let body = msg.encode_frame()[FRAME_HEADER_BYTES..].to_vec();
        out.clear();
        core.handle_frame(CONN, &body, &mut out);
        let [(_, reply)] = out.as_slice() else {
            panic!("the dry run answers every request exactly once");
        };
        match (what, reply) {
            (
                0,
                Msg::Decision {
                    outcome,
                    session,
                    end_epoch,
                    ..
                },
            ) => match outcome {
                Verdict::Admitted => {
                    ledger.admitted += 1;
                    sessions.insert(idx, (*session, end_epoch * NS));
                    heap.push(Reverse((t + TELE_POLL_NS, seq, 1, idx)));
                    seq += 1;
                }
                Verdict::Rejected => ledger.rejected += 1,
                Verdict::Parked => ledger.parked += 1,
                Verdict::PastHorizon => ledger.past_horizon += 1,
                Verdict::UnknownApp => ledger.bad_app += 1,
            },
            (
                1,
                Msg::Error {
                    code: ErrCode::UnknownSession,
                    ..
                },
            ) => ledger.stale_polls += 1,
            _ => {}
        }
        s.kinds.push(match what {
            0 => Kind::Open,
            1 => Kind::Poll,
            _ => Kind::Snapshot,
        });
        s.bodies.push(body);
        s.vt_ns.push(t);
        s.replies.push(reply.encode_frame());
        s.ledger.push(ledger);
    }
    s
}

/// One rung's measurements.
struct Rung {
    rate: u64,
    latencies_us: Vec<f64>,
    lag_us: Vec<f64>,
    backlog_max: u64,
    growing: bool,
    achieved_rps: f64,
    vsecs_per_wall_s: f64,
    sent: Vec<Sent>,
}

/// Drives the first `n` requests of `stream` at `rate` requests per wall
/// second into a fresh daemon, pipelined from this thread; each request is
/// timed from its scheduled send time.
#[allow(clippy::too_many_arguments)]
fn tele_rung(
    out: &mut Outcome,
    engine: &FleetEngine,
    stream: &Stream,
    rate: u64,
    n: usize,
    seed: u64,
    record: bool,
    check_journal: bool,
) -> Rung {
    let path = journal_path("serve_telemetry", seed);
    let _ = std::fs::remove_file(&path);
    let opts = tele_opts(Some(path.clone()));
    std::thread::scope(|sc| {
        let (tx, rx): (Sender<DaemonMsg>, Receiver<DaemonMsg>) = channel();
        let daemon = sc.spawn(|| run_daemon(engine, &opts, rx));
        let (reply_tx, reply_rx) = channel::<Vec<u8>>();
        tx.send(DaemonMsg::Connect {
            conn: CONN,
            sink: ReplySink::Channel(reply_tx),
        })
        .expect("daemon is listening");
        let send = |body: Vec<u8>| {
            tx.send(DaemonMsg::Frame { conn: CONN, body })
                .expect("daemon is listening")
        };
        let hello = Msg::Hello {
            client: seed,
            token: TELE_TOKEN.into(),
        };
        let hello_body = hello.encode_frame()[FRAME_HEADER_BYTES..].to_vec();
        send(hello_body.clone());
        let ack = reply_rx.recv().expect("daemon answers Hello");
        assert!(
            matches!(
                Msg::decode_body(&ack[FRAME_HEADER_BYTES..]),
                Ok(Msg::HelloAck { .. })
            ),
            "daemon refused the handshake"
        );

        // Wall schedule: virtual time compressed so the mean offered rate
        // is `rate`.
        let vspan = stream.vt_ns[n - 1].max(1) as f64;
        let wall_per_vns = n as f64 / rate as f64 / vspan;
        let sched: Vec<u64> = stream.vt_ns[..n]
            .iter()
            .map(|&v| (v as f64 * wall_per_vns * 1e9) as u64)
            .collect();
        // Owned copies up front, so sending moves a buffer instead of
        // allocating on the generator's hot path.
        let mut bodies: Vec<Vec<u8>> = stream.bodies[..n].to_vec();
        let mut lat = vec![0.0f64; n];
        let mut lag = Vec::with_capacity(n);
        let mut backlog_at = Vec::with_capacity(n);
        let mut failed = 0u64;
        let mut next = 0usize;
        let mut got = 0usize;
        let t0 = Instant::now();
        let mut last_recv = t0;
        while got < n {
            loop {
                match reply_rx.try_recv() {
                    Ok(frame) => {
                        last_recv = Instant::now();
                        let due = t0 + Duration::from_nanos(sched[got]);
                        lat[got] = last_recv.saturating_duration_since(due).as_nanos() as f64 / 1e3;
                        if frame != stream.replies[got] {
                            failed += 1;
                        }
                        got += 1;
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        out.note("daemon hung up mid-rung".into());
                        failed += (n - got) as u64;
                        got = n;
                        break;
                    }
                }
            }
            if next < n {
                let now_ns = t0.elapsed().as_nanos() as u64;
                if now_ns >= sched[next] {
                    lag.push((now_ns - sched[next]) as f64 / 1e3);
                    backlog_at.push((next - got) as u64);
                    send(std::mem::take(&mut bodies[next]));
                    next += 1;
                    continue;
                }
            }
            std::hint::spin_loop();
        }
        let wall = last_recv.duration_since(t0).as_secs_f64();

        // Seal, outside the timed part.
        let seal = Msg::Seal {
            at_ns: stream.vt_ns[n - 1],
        };
        send(seal.encode_frame()[FRAME_HEADER_BYTES..].to_vec());
        let report_json = match reply_rx
            .recv()
            .map(|f| Msg::decode_body(&f[FRAME_HEADER_BYTES..]))
        {
            Ok(Ok(Msg::Report { json })) => json,
            other => {
                out.fail_check(format!("seal did not return a report: {other:?}"));
                String::new()
            }
        };
        let _ = tx.send(DaemonMsg::Hangup { conn: CONN });
        drop(tx);
        let sealed = daemon.join().expect("daemon thread panicked");
        out.attempted += n as u64;
        out.failed += failed;
        check_sealed(
            out,
            engine,
            TELE_SHARDS,
            &sealed,
            &report_json,
            &stream.ledger[n],
            check_journal.then_some(path.as_path()),
        );

        // A backlog grows when the last quarter of the rung queues clearly
        // more than the second quarter did.
        let q = backlog_at.len() / 4;
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        let growing =
            q > 0 && mean(&backlog_at[3 * q..]) > 2.0 * mean(&backlog_at[q..2 * q]) + 16.0;
        let sent = if record {
            std::iter::once(Sent {
                kind: Kind::Hello,
                body: hello_body,
                latency_us: None,
            })
            .chain((0..n).map(|i| Sent {
                kind: stream.kinds[i],
                body: stream.bodies[i].clone(),
                latency_us: Some(lat[i]),
            }))
            .collect()
        } else {
            Vec::new()
        };
        Rung {
            rate,
            latencies_us: lat,
            lag_us: lag,
            backlog_max: backlog_at.iter().copied().max().unwrap_or(0),
            growing,
            achieved_rps: n as f64 / wall,
            vsecs_per_wall_s: stream.vt_ns[n - 1] as f64 / 1e9 / wall,
            sent,
        }
    })
}

/// Requests each rung sends, from the run length.
fn rung_sizes(seconds: u64) -> Vec<(u64, usize)> {
    let total = seconds as f64;
    let ref_s = total * REFERENCE_SHARE;
    let other_s = (total - ref_s) / (LADDER.len() - 1) as f64;
    LADDER
        .iter()
        .map(|&r| {
            let d = if r == REFERENCE_RATE { ref_s } else { other_s };
            (r, ((r as f64 * d) as usize).max(1_000))
        })
        .collect()
}

/// `serve_telemetry`.
pub fn serve_telemetry(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::new("serve_telemetry");
    let sizes = rung_sizes(cfg.seconds);
    let n_max = sizes.iter().map(|s| s.1).max().expect("a non-empty ladder");
    let epochs = tele_vsecs(n_max);
    let engine = tele_engine(cfg.seed, epochs);
    // Set-up: generate the stream (with its dry run) three times.
    let mut setups = Vec::new();
    let mut stream = None;
    for _ in 0..3 {
        let t = Instant::now();
        stream = Some(tele_stream(cfg.seed, n_max, &engine));
        setups.push(t.elapsed().as_secs_f64());
    }
    let stream = stream.expect("three set-ups ran");
    let mut rungs = Vec::new();
    for &(rate, n) in &sizes {
        let is_ref = rate == REFERENCE_RATE;
        let rung = tele_rung(
            &mut out,
            &engine,
            &stream,
            rate,
            n,
            cfg.seed,
            cfg.trace && is_ref,
            is_ref,
        );
        if is_ref && cfg.trace {
            // Journal of the reference rung, kept for the layer replay.
            let _ = std::fs::rename(
                journal_path("serve_telemetry", cfg.seed),
                journal_path("serve_telemetry-ref", cfg.seed),
            );
        }
        rungs.push(rung);
    }
    let mut max_rate = 0.0;
    for r in &rungs {
        let s = Sorted::new(r.latencies_us.clone());
        let lag = Sorted::new(r.lag_us.clone());
        let ok = s.pct(0.99) <= LIMIT_P99_US && !r.growing;
        if ok && r.achieved_rps > max_rate {
            max_rate = r.achieved_rps;
        }
        out.note(format!(
            "rung {:>6}/s: {} req, achieved {:.0}/s, p50 {:.1} us, p99 {:.1} us, p999 {:.1} us, lag p99 {:.1} us, backlog max {}{}, {}",
            r.rate,
            s.len(),
            r.achieved_rps,
            s.pct(0.5),
            s.pct(0.99),
            s.pct(0.999),
            lag.pct(0.99),
            r.backlog_max,
            if r.growing { " (growing)" } else { "" },
            if ok { "meets the limit" } else { "misses the limit" },
        ));
    }
    out.note(format!(
        "max rate meeting p99 <= {LIMIT_P99_US} us without a growing backlog: {max_rate:.0}/s"
    ));
    let r = rungs
        .iter()
        .find(|r| r.rate == REFERENCE_RATE)
        .expect("the reference rate is on the ladder");
    // The reference rung is cut into consecutive windows of WINDOW
    // requests; percentiles are exact within a window and the median over
    // windows is reported.
    let cuts = stats::window_bounds(r.latencies_us.len(), WINDOW);
    let lat = stats::Reps::new(stats::windows(&r.latencies_us, WINDOW));
    let decide = stats::Reps::new(
        cuts.iter()
            .map(|&(a, b)| {
                (a..b)
                    .filter(|&i| stream.kinds[i] == Kind::Open)
                    .map(|i| r.latencies_us[i])
                    .collect()
            })
            .collect(),
    );
    out.meta("reference_rate", REFERENCE_RATE);
    out.meta("ladder", format!("{LADDER:?}"));
    out.meta("setup_reps", setups.len());
    out.meta("max_rate_rps", format!("{max_rate:.1}"));
    out.samples("latency", &lat);
    out.samples("decide", &decide);
    if !cfg.trace {
        out.metric("setup_s", stats::median(&setups), Unit::S);
        out.metric("sim_s_per_wall_s", r.vsecs_per_wall_s, Unit::SimPerWall);
        out.metric("decide_p50_us", decide.pct(0.5), Unit::Us);
        out.metric("decide_p99_us", decide.pct(0.99), Unit::Us);
        out.metric("req_per_s", r.achieved_rps, Unit::PerS);
        out.metric("latency_p50_us", lat.pct(0.5), Unit::Us);
        out.metric("latency_p99_us", lat.pct(0.99), Unit::Us);
        out.metric("latency_p999_us", lat.pct(0.999), Unit::Us);
        out.metric("peak_rss_mb", crate::host::peak_rss_mb(), Unit::Mb);
        return out;
    }
    let ref_journal = journal_path("serve_telemetry-ref", cfg.seed);
    let bytes = std::fs::read(&ref_journal).expect("read the reference journal");
    let _ = std::fs::remove_file(&ref_journal);
    let entries = decode_journal_entries(&bytes).expect("decode the journal");
    let replay_journal = journal_path("serve_telemetry-replay", cfg.seed);
    trace::set_enabled(true);
    let layers = replay_layers(
        &mut out,
        &engine,
        &tele_opts(Some(replay_journal.clone())),
        &r.sent,
        &entries,
    );
    trace::set_enabled(false);
    let _ = std::fs::remove_file(&replay_journal);
    crate::write_trace(&mut out, cfg, &trace::take());
    let ledger = stream.ledger[r.latencies_us.len()];
    layers.report(&mut out, lat.pct(0.5), &ledger, bytes.len() as u64);
    out
}
