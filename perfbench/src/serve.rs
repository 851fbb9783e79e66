//! The two gadt-serve traffic mixes: closed loops of two clients
//! against an in-process server on a unix socket with two connection
//! workers.
//!
//! * `serve_pooled`: a few killed mutants repeat; a seeding pass during
//!   set-up answers every question, so each timed session is answered
//!   entirely from the pooled store (`pool: true`).
//! * `serve_interactive`: every session debugs a distinct killed mutant
//!   with `pool: false`; the client answers each question from golden
//!   verdicts computed during set-up, and the server fsyncs every answer
//!   before acknowledging it.
//!
//! The traced run records a span around every client round trip, then
//! replays the recorded sessions in-process: the same frames encoded and
//! decoded, and the same calls into each layer that the server makes
//! for each request.

use crate::pipeline::{self, Golden, Killed, Prepared};
use crate::report::{loop_metrics, ms, timed_setup, Deadline, Report};
use crate::spans::{self, count, span, Ledger};
use crate::Args;
use gadt::debugger::{DebugConfig, DebugResult};
use gadt::handle::{DebugHandle, Verdict};
use gadt::stored::{answer_from_stored, answer_to_stored, STORED_SOURCE};
use gadt_analysis::dyntrace::DynTrace;
use gadt_corpus::Lcg;
use gadt_pascal::interp::Limits;
use gadt_pascal::value::Value;
use gadt_serve::{write_frame, Client, Listen, Server, ServerConfig, ServerHandle, MAX_FRAME};
use gadt_store::{obj, value_from_json, value_to_json, AnswerAppend, Json, ShardedStore};
use gadt_trace::ExecTree;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Client threads, each with one connection; also the server's
/// connection workers.
const CLIENTS: usize = 2;

/// Which traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Repeating sources, every question answered by the pooled store.
    Pooled,
    /// Distinct sources, every question answered by the client.
    Interactive,
}

/// A directory inside the working directory, removed on drop. The
/// benchmark writes nowhere else.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(".perfbench_tmp").join(format!("{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// A server with its sources. Field order is drop order: the server
/// stops before its directory is removed.
struct Fixture {
    server: Option<ServerHandle>,
    sources: Vec<Killed>,
    /// Every answer the pooled seeding stored, for the replay's store.
    seeded: Vec<AnswerAppend>,
    /// Store generation: the interactive mix starts each segment on a
    /// fresh store.
    store_gen: usize,
    /// Whether no segment has run on the current server yet.
    fresh: bool,
    scratch: Scratch,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            let _ = server.shutdown();
        }
    }
}

impl Fixture {
    fn start(&mut self) -> Result<(), String> {
        let mut cfg = ServerConfig::new(
            Listen::Unix(self.scratch.0.join("sock")),
            self.scratch.0.join(format!("store-{}", self.store_gen)),
        );
        cfg.threads = CLIENTS;
        self.server = Some(Server::start(cfg).map_err(|e| format!("server start: {e}"))?);
        self.fresh = true;
        Ok(())
    }

    /// Stops the server and starts a new one, on the same store or on a
    /// fresh one. The session table is insert-only, so this is what
    /// bounds the server's memory between segments.
    fn restart(&mut self, fresh_store: bool) -> Result<(), String> {
        if let Some(server) = self.server.take() {
            server
                .shutdown()
                .map_err(|e| format!("server shutdown: {e}"))?;
        }
        if fresh_store {
            let old = self.scratch.0.join(format!("store-{}", self.store_gen));
            let _ = std::fs::remove_dir_all(old);
            self.store_gen += 1;
        }
        self.start()
    }

    fn client(&self) -> Result<Client, String> {
        let server = self.server.as_ref().expect("server running");
        Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))
    }
}

/// Runs `f` on every item with `CLIENTS` threads; results keep item
/// order.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                out.lock().expect("results poisoned")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("results poisoned")
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

/// Up to `total` killed mutants of the corpus, at most `per_subject`
/// from each subject, with their golden sessions. Sites are visited in
/// an order drawn from `seed`, round-robin across subjects; the subjects'
/// inputs are the fixed draw.
fn killed_mutants(seed: u64, programs: usize, per_subject: usize, total: usize) -> Vec<Killed> {
    let goldens: Vec<Golden> = par_map(
        &pipeline::subjects(pipeline::INPUT_DRAW, 0, programs),
        pipeline::golden,
    )
    .into_iter()
    .filter_map(Result::ok)
    .collect();
    let mut lcg = Lcg::new(seed);
    let orders: Vec<Vec<usize>> = goldens
        .iter()
        .map(|g| lcg.pick_distinct(g.sites.len(), g.sites.len()))
        .collect();
    let mut cursor = vec![0usize; goldens.len()];
    let mut found = vec![0usize; goldens.len()];
    let mut out = Vec::new();
    while out.len() < total {
        let mut batch = Vec::new();
        for round in 0..8 {
            for (g, order) in orders.iter().enumerate() {
                if found[g] < per_subject && cursor[g] + round < order.len() {
                    batch.push((g, order[cursor[g] + round]));
                }
            }
        }
        if batch.is_empty() {
            break;
        }
        for c in cursor.iter_mut() {
            *c += 8;
        }
        let results = par_map(&batch, |&(g, site)| {
            pipeline::mutant(&goldens[g], &goldens[g].sites[site]).1
        });
        for ((g, _), killed) in batch.into_iter().zip(results) {
            if let Some(k) = killed {
                if found[g] < per_subject && out.len() < total {
                    found[g] += 1;
                    out.push(k);
                }
            }
        }
    }
    out
}

/// A request frame.
fn request(op: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("op", Json::Str(op.to_string()))];
    all.extend(fields);
    obj(all)
}

fn verdict_fields(v: &Verdict) -> Vec<(&'static str, Json)> {
    match v {
        Verdict::Correct => vec![("verdict", Json::Str("yes".into()))],
        Verdict::Incorrect { wrong_output } => {
            let mut f = vec![("verdict", Json::Str("no".into()))];
            if let Some(k) = wrong_output {
                f.push(("wrong_output", Json::Int(*k as i64)));
            }
            f
        }
        Verdict::DontKnow => vec![("verdict", Json::Str("dont_know".into()))],
    }
}

/// What one live session measured.
#[derive(Debug, Default)]
struct SessionRun {
    latency_ms: f64,
    /// Every request and its response, in order.
    frames: Vec<(Json, Json)>,
    /// Answers the client sent, as the server stores them.
    answered: Vec<AnswerAppend>,
    /// Questions that reached the client.
    client_questions: usize,
    /// The unit the session localized.
    localized: Option<String>,
    /// Why the session stopped early: an error frame, a transport error
    /// or a question with no golden verdict.
    error: Option<String>,
}

impl SessionRun {
    /// The output check: no error, and the golden session's unit.
    fn check(&self, src: &Killed) -> Result<(), String> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if self.localized.as_deref() != Some(src.unit.as_str()) {
            return Err(format!(
                "localized {:?}, golden session localized {:?}",
                self.localized, src.unit
            ));
        }
        Ok(())
    }
}

/// One closed-loop session: create → trace → ask → answer… → done.
/// With `record`, every request and response is kept for the replay.
fn live_session(client: &mut Client, src: &Killed, pool: bool, record: bool) -> SessionRun {
    let mut run = SessionRun::default();
    let t0 = Instant::now();
    if let Err(e) = drive(client, src, pool, record, &mut run) {
        run.error = Some(e);
    }
    run.latency_ms = ms(t0.elapsed());
    run
}

fn drive(
    client: &mut Client,
    src: &Killed,
    pool: bool,
    record: bool,
    run: &mut SessionRun,
) -> Result<(), String> {
    let mut call = |rtt: &'static str, msg: Json, run: &mut SessionRun| -> Result<Json, String> {
        let resp = span(rtt, || client.request(&msg)).map_err(|e| format!("{rtt}: {e}"))?;
        if record {
            run.frames.push((msg, resp.clone()));
        }
        Ok(resp)
    };
    let create = call(
        "serve.create_rtt",
        request(
            "create",
            vec![
                ("source", Json::Str(src.source.clone())),
                ("pool", Json::Bool(pool)),
            ],
        ),
        run,
    )?;
    let sid = create
        .get("session")
        .and_then(Json::as_int)
        .ok_or("create reply has no session")?;
    let inputs = Json::Array(vec![Json::Array(
        src.input.iter().map(value_to_json).collect(),
    )]);
    call(
        "serve.trace_rtt",
        request(
            "trace",
            vec![("session", Json::Int(sid)), ("inputs", inputs)],
        ),
        run,
    )?;
    let mut reply = call(
        "serve.ask_rtt",
        request(
            "ask",
            vec![("session", Json::Int(sid)), ("run", Json::Int(0))],
        ),
        run,
    )?;
    loop {
        if reply.get("done").and_then(Json::as_bool) == Some(true) {
            run.localized = reply
                .get("localized")
                .and_then(Json::as_str)
                .map(str::to_string);
            return Ok(());
        }
        let q = reply
            .get("question")
            .ok_or("reply has neither done nor question")?;
        let query = q.get("query").and_then(Json::as_str).unwrap_or_default();
        let verdict = src
            .verdicts
            .get(query)
            .ok_or_else(|| format!("question with no golden verdict: {query}"))?
            .clone();
        run.client_questions += 1;
        if let Some(stored) = answer_to_stored(&verdict) {
            let unit = q.get("unit").and_then(Json::as_str).unwrap_or_default();
            let ins: Vec<Value> = q
                .get("ins")
                .and_then(Json::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|p| p.get("value").and_then(value_from_json))
                .collect();
            run.answered
                .push((unit.to_string(), ins, stored, "user".to_string()));
        }
        let mut fields = vec![("session", Json::Int(sid))];
        fields.extend(verdict_fields(&verdict));
        reply = call("serve.answer_rtt", request("answer", fields), run)?;
    }
}

/// Seeds the pooled store: every candidate is debugged once with the
/// client answering. Units of different programs share names, so one
/// candidate's answers can contradict what another needs; passes in
/// which each candidate must be answered by the store alone and
/// localize its golden unit drop those, until a pass stores nothing
/// new. The survivors are the sources.
fn seed_pool(fx: &mut Fixture) -> Result<(), String> {
    let mut client = fx.client()?;
    for src in &fx.sources {
        let run = live_session(&mut client, src, true, false);
        fx.seeded.extend(run.answered);
    }
    for _ in 0..8 {
        let mut answered = false;
        let seeded = &mut fx.seeded;
        fx.sources.retain(|src| {
            let run = live_session(&mut client, src, true, false);
            answered |= !run.answered.is_empty();
            let ok = run.client_questions == 0 && run.check(src).is_ok();
            seeded.extend(run.answered);
            ok
        });
        if !answered {
            break;
        }
    }
    Ok(())
}

/// Mines the sources and starts a server in a fresh scratch directory;
/// for the pooled mix, seeds its store (see [`seed_pool`]).
fn fixture(args: &Args, mix: Mix) -> Result<Fixture, String> {
    let z = &args.sizes;
    let sources = match mix {
        Mix::Pooled => killed_mutants(
            pipeline::INPUT_DRAW,
            z.pooled_programs,
            1,
            z.pooled_programs,
        ),
        Mix::Interactive => killed_mutants(
            args.seed,
            z.interactive_programs,
            usize::MAX,
            z.interactive_sources,
        ),
    };
    let mut fx = Fixture {
        server: None,
        sources,
        seeded: Vec::new(),
        store_gen: 0,
        fresh: true,
        scratch: Scratch::new().map_err(|e| format!("scratch directory: {e}"))?,
    };
    fx.start()?;
    if mix == Mix::Pooled {
        seed_pool(&mut fx)?;
        // Every seed repeats the same sources; the seed draws their order.
        let n = fx.sources.len();
        let order = Lcg::new(args.seed).pick_distinct(n, n);
        fx.sources = order.into_iter().map(|i| fx.sources[i].clone()).collect();
    }
    if fx.sources.is_empty() {
        return Err("no usable killed mutants for this seed".into());
    }
    Ok(fx)
}

/// What a closed loop measured.
#[derive(Default)]
struct Loop {
    sessions: u64,
    failed: u64,
    wall_s: f64,
    /// Source index and latency (ms) of every checked session.
    samples: Vec<(usize, f64)>,
    /// Σ session latency (ms) and wall seconds of each segment.
    windows: Vec<(f64, f64)>,
    /// Recorded sessions (traced runs only): segment, source index and
    /// the session.
    recorded: Vec<(usize, usize, SessionRun)>,
    traces: Vec<spans::Trace>,
}

impl Loop {
    /// Mean session latency in ms.
    fn mean_ms(&self) -> f64 {
        self.samples.iter().map(|s| s.1).sum::<f64>() / self.samples.len().max(1) as f64
    }
}

/// One segment: `CLIENTS` closed-loop clients on the current server
/// until `deadline` or until `cap` sessions have started. The pooled
/// mix cycles through its sources; the interactive mix takes each
/// source once.
fn segment(
    fx: &Fixture,
    mix: Mix,
    cap: usize,
    deadline: &Deadline,
    traced: bool,
    seg: usize,
    out: &mut Loop,
) -> Result<(), String> {
    let next = AtomicUsize::new(0);
    let start = out.samples.len();
    let shared = Mutex::new(std::mem::take(out));
    let t0 = Instant::now();
    std::thread::scope(|s| -> Result<(), String> {
        let mut workers = Vec::new();
        for _ in 0..CLIENTS {
            let mut client = fx.client()?;
            let (next, shared) = (&next, &shared);
            workers.push(s.spawn(move || {
                if traced {
                    spans::enable();
                }
                let mut local = Loop::default();
                while !deadline.passed() {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cap {
                        break;
                    }
                    let idx = i % fx.sources.len();
                    let src = &fx.sources[idx];
                    let run = span("session", || {
                        live_session(&mut client, src, mix == Mix::Pooled, traced)
                    });
                    local.sessions += 1;
                    match run.check(src) {
                        Ok(()) if mix == Mix::Pooled && run.client_questions > 0 => {
                            eprintln!("serve: a pooled session reached the client");
                            local.failed += 1;
                        }
                        Ok(()) => {
                            local.samples.push((idx, run.latency_ms));
                            if traced {
                                local.recorded.push((seg, idx, run));
                            }
                        }
                        Err(e) => {
                            eprintln!("serve: session failed: {e}");
                            local.failed += 1;
                        }
                    }
                }
                let mut o = shared.lock().expect("loop results poisoned");
                o.sessions += local.sessions;
                o.failed += local.failed;
                o.samples.extend(local.samples);
                o.recorded.extend(local.recorded);
                if traced {
                    o.traces.push(spans::take());
                }
            }));
        }
        for w in workers {
            w.join().map_err(|_| "client thread panicked".to_string())?;
        }
        Ok(())
    })?;
    *out = shared.into_inner().expect("loop results poisoned");
    let dt = t0.elapsed().as_secs_f64();
    out.wall_s += dt;
    let busy = out.samples[start..].iter().map(|s| s.1).sum();
    out.windows.push((busy, dt));
    Ok(())
}

/// Closed-loop traffic for `seconds` of measured time, in segments of at
/// most `cap` sessions. Between segments the server restarts (untimed):
/// on the same store for the pooled mix, on a fresh store for the
/// interactive mix, so no source repeats within a server's lifetime.
fn measure(
    fx: &mut Fixture,
    mix: Mix,
    cap: usize,
    seconds: f64,
    traced: bool,
) -> Result<Loop, String> {
    let mut out = Loop::default();
    let mut seg = 0;
    while out.wall_s < seconds {
        if !fx.fresh {
            fx.restart(mix == Mix::Interactive)?;
        }
        fx.fresh = false;
        let deadline = Deadline::after(seconds - out.wall_s);
        segment(fx, mix, cap, &deadline, traced, seg, &mut out)?;
        seg += 1;
    }
    Ok(out)
}

/// Encodes a frame and decodes it again as the peer does: the length
/// prefix and payload (`write_frame`), strict validation, then parsing.
fn frame_round_trip(msg: &Json) -> Result<Json, String> {
    let mut buf = Vec::new();
    span("serve.frame", || write_frame(&mut buf, msg, MAX_FRAME)).map_err(|e| e.to_string())?;
    let text = std::str::from_utf8(&buf[4..]).map_err(|e| e.to_string())?;
    span("obs.json_validate", || gadt_obs::json::validate(text))
        .map_err(|(at, what)| format!("invalid frame at {at}: {what}"))?;
    span("store.json_parse", || gadt_store::parse(text)).ok_or("frame did not parse".into())
}

/// Answers pending questions from the store, as the server's pooled
/// drain does.
fn drain(handle: &mut DebugHandle, store: &ShardedStore) {
    loop {
        let Some((unit, ins)) = handle.next_question().map(|q| {
            (
                q.unit.clone(),
                q.ins.iter().map(|(_, v)| v.clone()).collect::<Vec<_>>(),
            )
        }) else {
            return;
        };
        let Some(stored) = span("store.lookup", || store.lookup_answer(&unit, &ins)) else {
            return;
        };
        span("core.debug", || {
            handle.answer_from(answer_from_stored(stored), STORED_SOURCE)
        });
        count("core.questions", 1);
    }
}

/// Replays one recorded session in-process: every frame's encode and
/// decode on both sides, and the server's work for each request.
/// Returns the unit the replayed session localizes.
fn replay(run: &SessionRun, store: &ShardedStore, pool: bool) -> Result<String, String> {
    let mut prepared: Option<Prepared> = None;
    let mut traced: Vec<(DynTrace, ExecTree)> = Vec::new();
    let mut handle: Option<DebugHandle> = None;
    for (req, resp) in &run.frames {
        let msg = frame_round_trip(req)?;
        match msg.get("op").and_then(Json::as_str).unwrap_or_default() {
            "create" => {
                let source = msg.get("source").and_then(Json::as_str).unwrap_or_default();
                let module = pipeline::compile(source)?;
                prepared = Some(pipeline::prepare(&module)?);
            }
            "trace" => {
                let p = prepared.as_ref().ok_or("trace before create")?;
                let rows = msg
                    .get("inputs")
                    .and_then(Json::as_array)
                    .unwrap_or_default();
                for row in rows {
                    let input: Vec<Value> = row
                        .as_array()
                        .unwrap_or_default()
                        .iter()
                        .filter_map(value_from_json)
                        .collect();
                    let (_, trace, tree) = pipeline::run_traced(p, &input, Limits::default())?;
                    traced.push((trace, tree));
                }
            }
            "ask" => {
                let p = prepared.as_ref().ok_or("ask before create")?;
                let (trace, tree) = traced.first().ok_or("ask before trace")?;
                let mut h = span("core.debug", || {
                    DebugHandle::new(
                        Arc::new(p.transformed.module.clone()),
                        Arc::new(trace.clone()),
                        Some(p.transformed.mapping.clone()),
                        tree.clone(),
                        DebugConfig::default(),
                    )
                });
                if pool {
                    drain(&mut h, store);
                }
                handle = Some(h);
            }
            "answer" => {
                let h = handle.as_mut().ok_or("answer before ask")?;
                let verdict = match msg.get("verdict").and_then(Json::as_str) {
                    Some("yes") => Verdict::Correct,
                    Some("no") => Verdict::Incorrect {
                        wrong_output: msg
                            .get("wrong_output")
                            .and_then(Json::as_int)
                            .map(|k| k.max(0) as usize),
                    },
                    _ => Verdict::DontKnow,
                };
                let q = h.next_question().ok_or("answer without a question")?;
                let (unit, ins) = (
                    q.unit.clone(),
                    q.ins.iter().map(|(_, v)| v.clone()).collect::<Vec<_>>(),
                );
                span("core.debug", || h.answer_from(verdict.clone(), "user"));
                count("core.questions", 1);
                if let Some(stored) = answer_to_stored(&verdict) {
                    span("store.append_fsync", || {
                        store.record_answers(&[(unit, ins, stored, "user".to_string())])
                    })
                    .map_err(|e| format!("store append: {e}"))?;
                    count("store.appends", 1);
                }
                if pool {
                    drain(h, store);
                }
            }
            other => return Err(format!("unexpected op {other}")),
        }
        frame_round_trip(resp)?;
    }
    let h = handle.ok_or("session never asked")?;
    count("core.slices", h.slices_taken() as u64);
    match h.result() {
        Some(DebugResult::BugLocalized { unit, .. }) => Ok(unit.clone()),
        other => Err(format!("replayed session ended with {other:?}")),
    }
}

/// Replays `recorded` sessions on `CLIENTS` threads until `deadline`,
/// each segment's sessions against a store of its own: seeded as the
/// server's was for the pooled mix, fresh for the interactive mix.
/// Returns how many sessions were replayed.
fn replay_all(
    fx: &Fixture,
    recorded: &[(usize, usize, SessionRun)],
    mix: Mix,
    deadline: &Deadline,
    ledger: &mut Ledger,
    report: &mut Report,
) -> Result<u64, String> {
    let pool = mix == Mix::Pooled;
    let segments = recorded.iter().map(|r| r.0 + 1).max().unwrap_or(0);
    let mut stores = Vec::with_capacity(segments);
    for seg in 0..segments {
        let dir = fx.scratch.0.join(format!("replay-store-{seg}"));
        let store = ShardedStore::open(dir, 4).map_err(|e| format!("replay store: {e}"))?;
        if pool {
            store
                .record_answers(&fx.seeded)
                .map_err(|e| format!("seeding replay store: {e}"))?;
        }
        stores.push(store);
        if pool {
            break;
        }
    }
    let next = AtomicUsize::new(0);
    let results: Vec<(spans::Trace, u64, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    spans::enable();
                    let (mut done, mut failed) = (0u64, 0u64);
                    while !deadline.passed() {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((seg, idx, run)) = recorded.get(i) else {
                            break;
                        };
                        let store = &stores[if pool { 0 } else { *seg }];
                        let golden = &fx.sources[*idx].unit;
                        done += 1;
                        match span("replay", || replay(run, store, pool)) {
                            Ok(unit) if unit == *golden => {}
                            Ok(unit) => {
                                eprintln!("serve: replay localized {unit}, golden {golden}");
                                failed += 1;
                            }
                            Err(e) => {
                                eprintln!("serve: replay failed: {e}");
                                failed += 1;
                            }
                        }
                    }
                    (spans::take(), done, failed)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread panicked"))
            .collect()
    });
    let mut replayed = 0;
    for (trace, done, failed) in &results {
        ledger.add(trace);
        replayed += done;
        report.attempted += done;
        report.failed += failed;
    }
    Ok(replayed)
}

/// Session and WAL counts from the server's `stats` op.
fn growth(fx: &Fixture, report: &mut Report) {
    match fx
        .client()
        .and_then(|mut c| c.stats().map_err(|e| e.to_string()))
    {
        Ok(stats) => {
            let get = |k: &str| stats.get(k).and_then(Json::as_int).unwrap_or(0) as f64;
            report.metric("serve.live_sessions", get("sessions"), "count");
            report.metric("store.wal_records", get("wal_records"), "count");
        }
        Err(e) => {
            eprintln!("serve: stats failed: {e}");
            report.failed += 1;
        }
    }
}

/// Mean round trip of `n` pings on a fresh connection.
fn ping_rtt_ns(fx: &Fixture, n: usize) -> Result<f64, String> {
    let mut c = fx.client()?;
    spans::enable();
    let pings: Result<Vec<bool>, _> = (0..n)
        .map(|_| span("serve.ping_rtt", || c.ping()))
        .collect();
    let mut l = Ledger::default();
    l.add(&spans::take());
    pings.map_err(|e| format!("ping: {e}"))?;
    Ok(l.mean_leaf_ns("serve.ping_rtt"))
}

/// Runs the workload.
pub fn run(args: &Args, mix: Mix) -> Report {
    let mut report = Report::default();
    let (fx, setup_s) = timed_setup(args.setup_reps, || fixture(args, mix));
    let result = fx.and_then(|mut fx| {
        eprintln!(
            "serve: {} sources, {} seeded answers, set-up {setup_s:.3}s",
            fx.sources.len(),
            fx.seeded.len()
        );
        if args.trace {
            traced(args, mix, &mut fx, &mut report)
        } else {
            untraced(args, mix, &mut fx, setup_s, &mut report)
        }
    });
    if let Err(e) = result {
        eprintln!("serve: {e}");
        report.attempted += 1;
        report.failed += 1;
    }
    report
}

fn cap(args: &Args, mix: Mix, fx: &Fixture) -> usize {
    match mix {
        Mix::Pooled => args.sizes.pooled_segment,
        Mix::Interactive => fx.sources.len(),
    }
}

fn untraced(
    args: &Args,
    mix: Mix,
    fx: &mut Fixture,
    setup_s: f64,
    report: &mut Report,
) -> Result<(), String> {
    let l = measure(fx, mix, cap(args, mix, fx), args.seconds, false)?;
    report.attempted += l.sessions;
    report.failed += l.failed;
    report.metric("setup_s", setup_s, "s");
    loop_metrics(report, CLIENTS, &l.samples, &l.windows);
    Ok(())
}

/// Untraced live traffic, traced live traffic (a span per round trip),
/// then the in-process replay of the traced sessions, a third of the
/// time each.
fn traced(args: &Args, mix: Mix, fx: &mut Fixture, report: &mut Report) -> Result<(), String> {
    let third = args.seconds / 3.0;
    let cap = cap(args, mix, fx);
    let untraced = measure(fx, mix, cap, third, false)?;
    let live = measure(fx, mix, cap, third, true)?;
    for l in [&untraced, &live] {
        report.attempted += l.sessions;
        report.failed += l.failed;
    }
    growth(fx, report);
    let mut rtt = Ledger::default();
    for t in &live.traces {
        rtt.add(t);
    }
    for name in [
        "serve.create_rtt",
        "serve.trace_rtt",
        "serve.ask_rtt",
        "serve.answer_rtt",
    ] {
        report.metric(format!("{name}_ns"), rtt.mean_leaf_ns(name), "ns");
    }
    report.metric("serve.ping_rtt_ns", ping_rtt_ns(fx, 200)?, "ns");

    let mut ledger = Ledger::default();
    let replayed = replay_all(
        fx,
        &live.recorded,
        mix,
        &Deadline::after(third),
        &mut ledger,
        report,
    )?;
    let traced_ms = live.mean_ms();
    eprintln!("serve ledger ({replayed} replayed sessions):");
    eprint!("{}", ledger.render(replayed));
    crate::ledger_metrics(
        report,
        &ledger,
        replayed,
        traced_ms * 1e6,
        traced_ms,
        untraced.mean_ms(),
    );
    Ok(())
}
