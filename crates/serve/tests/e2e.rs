//! End-to-end service campaigns: concurrent §8 sessions, determinism
//! across server thread counts, pooled cross-user knowledge, and
//! kill/restart durability of acknowledged answers.

use gadt::debugger::DebugConfig;
use gadt::handle::Verdict;
use gadt::oracle::{ChainOracle, FnOracle, Oracle, ReferenceOracle};
use gadt::session::{debug, debug_observed, prepare, run_traced};
use gadt_obs::Recorder;
use gadt_pascal::testprogs;
use gadt_pascal::value::Value;
use gadt_serve::{
    read_frame, write_frame, AskReply, Client, Listen, Server, ServerAddr, ServerConfig,
    SessionOptions, MAX_FRAME,
};
use gadt_store::{obj, Json, ShardedStore, TempDir};
use std::collections::BTreeMap;

/// The §8 golden transcript, keyed by rendered query: what a simulated
/// user (reference oracle over the fixed program) answers. The server
/// renders queries in original-program coordinates exactly like the
/// local driver, so lookups are exact-match.
fn golden_answers() -> BTreeMap<String, Verdict> {
    let module = gadt_pascal::sema::compile(testprogs::SQRTEST).unwrap();
    let fixed = gadt_pascal::sema::compile(testprogs::SQRTEST_FIXED).unwrap();
    let prepared = prepare(&module).unwrap();
    let run = run_traced(&prepared, []).unwrap();
    let mut oracle = ChainOracle::new();
    oracle.push(ReferenceOracle::new(&fixed, []).unwrap());
    let outcome = debug(&prepared, &run, &mut oracle, DebugConfig::default());
    assert!(
        outcome.transcript.len() >= 7,
        "§8 asks at least 7 questions"
    );
    outcome
        .transcript
        .iter()
        .map(|t| (t.query.clone(), t.answer.clone()))
        .collect()
}

/// Drives one complete §8 session over the wire; returns the
/// per-session journal fingerprint.
fn run_full_session(addr: &ServerAddr, golden: &BTreeMap<String, Verdict>, pool: bool) -> String {
    let mut client = Client::connect(addr).expect("connect");
    let opts = SessionOptions {
        pool: Some(pool),
        ..SessionOptions::default()
    };
    let sid = client
        .create_session(testprogs::SQRTEST, &opts)
        .expect("create");
    let outputs = client.trace(sid, &[vec![]]).expect("trace");
    assert_eq!(outputs.len(), 1);
    let mut reply = client.ask(sid, 0).expect("ask");
    loop {
        match reply {
            AskReply::Done { ref localized, .. } => {
                assert_eq!(localized.as_deref(), Some("decrement"));
                break;
            }
            AskReply::Question { ref query, .. } => {
                let verdict = golden
                    .get(query)
                    .unwrap_or_else(|| panic!("unexpected question: {query}"))
                    .clone();
                reply = client.answer(sid, &verdict).expect("answer");
            }
        }
    }
    client.journal_fingerprint(sid).expect("journal")
}

#[test]
fn eight_concurrent_sessions_are_deterministic_across_thread_counts() {
    let golden = golden_answers();
    let mut journal_fps: Vec<String> = Vec::new();
    let mut store_fps: Vec<String> = Vec::new();

    for threads in [1usize, 2, 8] {
        let dir = TempDir::new(&format!("serve-det-{threads}"));
        let store_dir = dir.path().join("store");
        let mut cfg = ServerConfig::new(Listen::Tcp("127.0.0.1:0".into()), &store_dir);
        cfg.threads = threads;
        cfg.shards = 3;
        let handle = Server::start(cfg).expect("server starts");
        let addr = handle.addr().clone();

        let fps: Vec<String> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| run_full_session(&addr, &golden, false)))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        // Every session replays the same campaign: all 8 journal
        // fingerprints are byte-identical within a run.
        for fp in &fps[1..] {
            assert_eq!(fp, &fps[0], "at {threads} server threads");
        }
        journal_fps.push(fps[0].clone());

        let report = handle.shutdown().expect("clean shutdown");
        assert_eq!(report.sessions, 8);
        assert_eq!(report.wal_records, 0, "clean shutdown compacts WALs");
        assert!(report.compactions >= 3);

        let store = ShardedStore::open(&store_dir, 1).expect("reopen");
        assert_eq!(store.shard_count(), 3, "layout survives");
        store_fps.push(store.disk_fingerprint().unwrap());
    }

    // ... and across server thread counts: same journals, same bytes on
    // disk.
    assert_eq!(journal_fps[0], journal_fps[1]);
    assert_eq!(journal_fps[0], journal_fps[2]);
    assert_eq!(store_fps[0], store_fps[1]);
    assert_eq!(store_fps[0], store_fps[2]);
}

#[test]
fn pooled_knowledge_answers_the_second_client() {
    let golden = golden_answers();
    let dir = TempDir::new("serve-pool");
    let mut cfg = ServerConfig::new(Listen::Tcp("127.0.0.1:0".into()), dir.path().join("store"));
    cfg.threads = 2;
    cfg.shards = 2;
    let handle = Server::start(cfg).expect("server starts");
    let addr = handle.addr().clone();

    // First user pays the full question cost.
    run_full_session(&addr, &golden, true);

    // Second user: every §8 question is already pooled knowledge — the
    // first `ask` comes back finished, no question ever reaches them.
    let mut client = Client::connect(&addr).unwrap();
    let opts = SessionOptions {
        pool: Some(true),
        ..SessionOptions::default()
    };
    let sid = client.create_session(testprogs::SQRTEST, &opts).unwrap();
    client.trace(sid, &[vec![]]).unwrap();
    match client.ask(sid, 0).unwrap() {
        AskReply::Done {
            localized,
            questions,
            ..
        } => {
            assert_eq!(localized.as_deref(), Some("decrement"));
            assert!(questions >= 7);
        }
        AskReply::Question { query, .. } => {
            panic!("second client should ride the pool, got asked: {query}")
        }
    }
    drop(client);
    handle.shutdown().unwrap();
}

#[test]
fn kill_midway_restart_recovers_every_acknowledged_answer() {
    let golden = golden_answers();
    let dir = TempDir::new("serve-kill");
    let store_dir = dir.path().join("store");
    let sock = dir.path().join("gadt.sock");
    let mut cfg = ServerConfig::new(Listen::Unix(sock.clone()), &store_dir);
    cfg.threads = 4;
    cfg.shards = 4;
    let handle = Server::start(cfg.clone()).expect("server starts");
    let addr = handle.addr().clone();

    // 8 concurrent clients each answer exactly 3 questions; every
    // acknowledged answer is fsynced before the client sees the reply.
    type Acked = Vec<(String, Vec<Value>, Verdict)>;
    let acked: Vec<Acked> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(&addr).unwrap();
                    let opts = SessionOptions {
                        pool: Some(false),
                        ..SessionOptions::default()
                    };
                    let sid = client.create_session(testprogs::SQRTEST, &opts).unwrap();
                    client.trace(sid, &[vec![]]).unwrap();
                    let mut reply = client.ask(sid, 0).unwrap();
                    let mut mine: Acked = Vec::new();
                    for _ in 0..3 {
                        let AskReply::Question {
                            ref unit,
                            ref query,
                            ref ins,
                            ..
                        } = reply
                        else {
                            break;
                        };
                        let verdict = golden.get(query).unwrap().clone();
                        let (unit, ins) = (unit.clone(), ins.clone());
                        reply = client.answer(sid, &verdict).unwrap();
                        // The reply arrived: this answer is acknowledged.
                        mine.push((unit, ins, verdict));
                    }
                    mine
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(acked.iter().all(|a| a.len() == 3));

    // Kill mid-campaign: no final compaction, sessions lost, socket
    // file left behind — only the store's durability contract remains.
    handle.kill();

    // Restart over the same store directory and socket path.
    let handle = Server::start(cfg).expect("server restarts over the store");
    let mut client = Client::connect(handle.addr()).unwrap();

    // Zero lost acknowledged appends: every answer any client was shown
    // an acknowledgement for is served back from the recovered store.
    for (unit, ins, verdict) in acked.iter().flatten() {
        let found = client.knowledge(unit, ins).unwrap();
        assert_eq!(found.as_ref(), Some(verdict), "lost ack for {unit}");
    }

    // A pooled session resumes the campaign: the recovered knowledge
    // answers the first three questions before the client sees one.
    let opts = SessionOptions {
        pool: Some(true),
        ..SessionOptions::default()
    };
    let sid = client.create_session(testprogs::SQRTEST, &opts).unwrap();
    client.trace(sid, &[vec![]]).unwrap();
    let mut reply = client.ask(sid, 0).unwrap();
    if let AskReply::Question { asked, .. } = reply {
        assert_eq!(asked, 3, "the three acknowledged answers ride the pool");
    } else {
        panic!("expected a fourth question after the pooled prefix");
    }
    loop {
        match reply {
            AskReply::Done { ref localized, .. } => {
                assert_eq!(localized.as_deref(), Some("decrement"));
                break;
            }
            AskReply::Question { ref query, .. } => {
                let verdict = golden.get(query).unwrap().clone();
                reply = client.answer(sid, &verdict).unwrap();
            }
        }
    }
    drop(client);
    let report = handle.shutdown().unwrap();
    assert!(
        report.compactions >= 4,
        "clean shutdown compacts all shards"
    );
    assert!(!sock.exists(), "clean shutdown removes the socket file");
}

#[test]
fn subscribers_stream_journal_events_live() {
    let golden = golden_answers();
    let dir = TempDir::new("serve-subscribe");
    let mut cfg = ServerConfig::new(Listen::Tcp("127.0.0.1:0".into()), dir.path().join("store"));
    cfg.threads = 2;
    let handle = Server::start(cfg).expect("server starts");
    let addr = handle.addr().clone();

    let mut driver = Client::connect(&addr).unwrap();
    let opts = SessionOptions {
        pool: Some(false),
        ..SessionOptions::default()
    };
    let sid = driver.create_session(testprogs::SQRTEST, &opts).unwrap();
    driver.trace(sid, &[vec![]]).unwrap();

    // Subscribe from a second connection, then drive one answer from
    // the first: the subscriber must see the transform/trace backlog
    // AND the live question event.
    let subscriber = Client::connect(&addr).unwrap();
    let mut events = subscriber.subscribe(sid).unwrap();

    let reply = driver.ask(sid, 0).unwrap();
    let AskReply::Question { ref query, .. } = reply else {
        panic!("expected the first §8 question");
    };
    driver
        .answer(sid, &golden.get(query).unwrap().clone())
        .unwrap();

    let mut saw_trace = false;
    let mut saw_question = false;
    for _ in 0..500 {
        let Some(line) = events.next_event().unwrap() else {
            break;
        };
        gadt_obs::json::validate(&line).expect("streamed lines are valid JSON");
        if line.contains("\"name\":\"trace\"") {
            saw_trace = true;
        }
        if line.contains("\"name\":\"question\"") && line.contains("\"unit\":\"sqrtest\"") {
            saw_question = true;
            break;
        }
    }
    assert!(saw_trace, "backlog replays the trace span");
    assert!(saw_question, "live question event reaches the subscriber");

    drop(driver);
    handle.shutdown().unwrap();
}

/// A journal fingerprint's `question` and `slice` point events (name
/// and fields, in order; depth dropped) and its `debug.` counter lines.
fn questions_slices_and_debug_counters(fingerprint: &str) -> (Vec<String>, Vec<String>) {
    let mut events = Vec::new();
    let mut counters = Vec::new();
    for line in fingerprint.lines() {
        let json = gadt_store::parse(line).expect("fingerprint lines are JSON");
        let name = json.get("name").and_then(Json::as_str).unwrap_or_default();
        match json.get("k").and_then(Json::as_str) {
            Some("point") if name == "question" || name == "slice" => {
                events.push(format!("{name} {}", json.get("fields").expect("fields")));
            }
            Some("counter") if name.starts_with("debug.") => counters.push(line.to_string()),
            _ => {}
        }
    }
    (events, counters)
}

#[test]
fn served_questions_and_slices_journal_like_the_library() {
    let dir = TempDir::new("serve-journal-parity");
    let mut cfg = ServerConfig::new(Listen::Tcp("127.0.0.1:0".into()), dir.path().join("store"));
    cfg.threads = 1;
    let handle = Server::start(cfg).expect("server starts");
    let served = run_full_session(handle.addr(), &golden_answers(), false);
    handle.shutdown().unwrap();

    // The same verdicts through the library's `Debugger`, answered as `user`.
    let module = gadt_pascal::sema::compile(testprogs::SQRTEST).unwrap();
    let fixed = gadt_pascal::sema::compile(testprogs::SQRTEST_FIXED).unwrap();
    let prepared = prepare(&module).unwrap();
    let run = run_traced(&prepared, []).unwrap();
    let mut reference = ReferenceOracle::new(&fixed, []).unwrap();
    let mut oracle = ChainOracle::new();
    oracle.push(FnOracle::new("user", |m: &_, t: &_, n| {
        reference.judge(m, t, n)
    }));
    let mut rec = Recorder::untimed();
    let outcome = debug_observed(
        &prepared,
        &run,
        &mut oracle,
        DebugConfig::default(),
        None,
        &mut rec,
    );
    assert_eq!(outcome.slices_taken, 2);
    let library = rec.finish().fingerprint();

    let (served_events, served_counters) = questions_slices_and_debug_counters(&served);
    let (library_events, library_counters) = questions_slices_and_debug_counters(&library);
    assert_eq!(
        served_events.len(),
        outcome.total_queries() + outcome.slices_taken
    );
    assert_eq!(served_events, library_events);
    assert!(!served_counters.is_empty());
    assert_eq!(served_counters, library_counters);
}

#[test]
fn server_errors_are_reported_not_fatal() {
    let dir = TempDir::new("serve-errors");
    let mut cfg = ServerConfig::new(Listen::Tcp("127.0.0.1:0".into()), dir.path().join("store"));
    cfg.threads = 1;
    let handle = Server::start(cfg).expect("server starts");
    let mut client = Client::connect(handle.addr()).unwrap();

    // Unknown session.
    let err = client.trace(99, &[vec![]]).unwrap_err();
    assert!(err.to_string().contains("no session"), "{err}");

    // Compile error.
    let err = client
        .create_session("program; begin end.", &SessionOptions::default())
        .unwrap_err();
    assert!(err.to_string().contains("compile"), "{err}");

    // Answer with no debug handle.
    let opts = SessionOptions::default();
    let sid = client.create_session(testprogs::SQRTEST, &opts).unwrap();
    let err = client.answer(sid, &Verdict::Correct).unwrap_err();
    assert!(err.to_string().contains("ask"), "{err}");

    // Ask before any trace.
    let err = client.ask(sid, 0).unwrap_err();
    assert!(err.to_string().contains("no traced run"), "{err}");

    // The connection and server are still healthy.
    assert!(client.ping().unwrap());
    drop(client);
    handle.shutdown().unwrap();
}

fn op(name: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("op", Json::Str(name.into()))];
    all.extend(fields);
    obj(all)
}

fn answer_request(sid: i64, verdict: &Verdict) -> Json {
    let mut fields = vec![("session", Json::Int(sid))];
    match verdict {
        Verdict::Correct => fields.push(("verdict", Json::Str("yes".into()))),
        Verdict::Incorrect { wrong_output } => {
            fields.push(("verdict", Json::Str("no".into())));
            if let Some(k) = wrong_output {
                fields.push(("wrong_output", Json::Int(*k as i64)));
            }
        }
        Verdict::DontKnow => fields.push(("verdict", Json::Str("dont_know".into()))),
    }
    op("answer", fields)
}

/// One unpooled §8 session driven by raw requests: every reply as the
/// server encoded it (the create reply without its session id, the one
/// field that must differ), then the session journal's JSON lines.
fn recorded_session(
    client: &mut Client,
    golden: &BTreeMap<String, Verdict>,
) -> (Vec<String>, String) {
    let created = client
        .request(&op(
            "create",
            vec![
                ("source", Json::Str(testprogs::SQRTEST.into())),
                ("pool", Json::Bool(false)),
            ],
        ))
        .unwrap();
    let sid = created.get("session").and_then(Json::as_int).unwrap();
    let Json::Object(fields) = &created else {
        panic!("create reply is not an object: {created}")
    };
    let without_sid = Json::Object(
        fields
            .iter()
            .filter(|(k, _)| k != "session")
            .cloned()
            .collect(),
    );
    let mut replies = vec![without_sid.to_string()];
    let session = || ("session", Json::Int(sid));
    let traced = client
        .request(&op(
            "trace",
            vec![
                session(),
                ("inputs", Json::Array(vec![Json::Array(vec![])])),
            ],
        ))
        .unwrap();
    replies.push(traced.to_string());
    let mut reply = client
        .request(&op("ask", vec![session(), ("run", Json::Int(0))]))
        .unwrap();
    loop {
        replies.push(reply.to_string());
        if reply.get("done").and_then(Json::as_bool) == Some(true) {
            assert_eq!(
                reply.get("localized").and_then(Json::as_str),
                Some("decrement")
            );
            break;
        }
        let query = reply
            .get("question")
            .and_then(|q| q.get("query"))
            .and_then(Json::as_str)
            .unwrap();
        reply = client
            .request(&answer_request(sid, &golden[query]))
            .unwrap();
    }
    (replies, client.journal_fingerprint(sid as u64).unwrap())
}

fn stat(client: &mut Client, key: &str) -> i64 {
    let stats = client.stats().unwrap();
    stats
        .get(key)
        .and_then(Json::as_int)
        .unwrap_or_else(|| panic!("stats lacks `{key}`: {stats}"))
}

#[test]
fn warm_creates_reply_and_journal_exactly_like_the_cold_one() {
    let golden = golden_answers();
    let dir = TempDir::new("serve-warm");
    let mut cfg = ServerConfig::new(Listen::Tcp("127.0.0.1:0".into()), dir.path().join("store"));
    cfg.threads = 2;
    let handle = Server::start(cfg).expect("server starts");
    let mut client = Client::connect(handle.addr()).unwrap();

    let (cold_replies, cold_journal) = recorded_session(&mut client, &golden);
    for warm in 1..3 {
        let (replies, journal) = recorded_session(&mut client, &golden);
        assert_eq!(replies, cold_replies, "warm session {warm}");
        let lines: Vec<&str> = journal.lines().collect();
        assert_eq!(
            lines,
            cold_journal.lines().collect::<Vec<_>>(),
            "warm session {warm}"
        );
        // Both carry the compile journal: the transform span and its
        // counters.
        assert!(
            lines
                .iter()
                .any(|l| l.contains(r#""k":"enter","name":"transform""#)),
            "{journal}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains(r#""k":"counter","name":"transform.rounds""#)),
            "{journal}"
        );
    }

    // Three sessions of one source and input: one compile and one
    // traced run, both live.
    assert_eq!(stat(&mut client, "sessions"), 3);
    assert_eq!(stat(&mut client, "compiles"), 1);
    assert_eq!(stat(&mut client, "programs"), 1);
    assert_eq!(stat(&mut client, "traces"), 1);
    assert_eq!(stat(&mut client, "runs"), 1);
    drop(client);
    handle.shutdown().unwrap();
}

/// Reads one integer `n` and prints 1 + … + n.
const SUMMER: &str = "program t; var n, s, i: integer;
     begin read(n); s := 0; for i := 1 to n do s := s + i; writeln(s) end.";

#[test]
fn sessions_under_other_limits_do_not_share_a_run() {
    let dir = TempDir::new("serve-run-limits");
    let mut cfg = ServerConfig::new(Listen::Tcp("127.0.0.1:0".into()), dir.path().join("store"));
    cfg.threads = 1;
    let handle = Server::start(cfg).expect("server starts");
    let mut client = Client::connect(handle.addr()).unwrap();

    let bounded = SessionOptions {
        max_steps: Some(1_000_000),
        ..SessionOptions::default()
    };
    let mut outputs = Vec::new();
    for opts in [
        &SessionOptions::default(),
        &bounded,
        &SessionOptions::default(),
    ] {
        let sid = client.create_session(SUMMER, opts).unwrap();
        outputs.push(client.trace(sid, &[vec![Value::Int(4)]]).unwrap());
    }
    assert_eq!(outputs[0], ["10\n"]);
    assert!(outputs.iter().all(|o| *o == outputs[0]), "{outputs:?}");
    // The third session shares the first one's run.
    assert_eq!(stat(&mut client, "compiles"), 1);
    assert_eq!(stat(&mut client, "traces"), 2);
    assert_eq!(stat(&mut client, "runs"), 2);
    drop(client);
    handle.shutdown().unwrap();
}

#[test]
fn a_failing_input_fails_the_whole_trace_and_keeps_no_run() {
    let dir = TempDir::new("serve-run-failure");
    let mut cfg = ServerConfig::new(Listen::Tcp("127.0.0.1:0".into()), dir.path().join("store"));
    cfg.threads = 1;
    let handle = Server::start(cfg).expect("server starts");
    let ServerAddr::Tcp(addr) = handle.addr() else {
        unreachable!("listening on TCP")
    };
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let mut frame = |msg: Json| -> Json {
        write_frame(&mut raw, &msg, MAX_FRAME).unwrap();
        read_frame(&mut raw, MAX_FRAME).unwrap().unwrap()
    };
    let error = |message: String| {
        obj(vec![
            ("ok", Json::Bool(false)),
            ("error", Json::Str(message)),
        ])
        .to_string()
    };

    // The second row reads past the end of its input.
    let prepared = prepare(&gadt_pascal::sema::compile(SUMMER).unwrap()).unwrap();
    let read_error = error(format!("trace: {}", run_traced(&prepared, []).unwrap_err()));
    let rows = Json::Array(vec![Json::Array(vec![Json::Int(3)]), Json::Array(vec![])]);
    for max_steps in [None, Some(1_000_000)] {
        let mut fields = vec![("source", Json::Str(SUMMER.into()))];
        if let Some(n) = max_steps {
            fields.push(("max_steps", Json::Int(n)));
        }
        let sid = frame(op("create", fields)).get("session").unwrap().clone();
        let session = || ("session", sid.clone());
        let traced = frame(op("trace", vec![session(), ("inputs", rows.clone())]));
        assert_eq!(traced.to_string(), read_error, "max_steps {max_steps:?}");
        let asked = frame(op("ask", vec![session(), ("run", Json::Int(0))]));
        assert_eq!(
            asked.to_string(),
            error("no traced run at index 0 (0 available)".into()),
            "max_steps {max_steps:?}"
        );
    }
    let stats = frame(op("stats", vec![]));
    assert_eq!(stats.get("runs").and_then(Json::as_int), Some(0), "{stats}");
    handle.shutdown().unwrap();
}

#[test]
fn engines_do_not_share_a_program() {
    let dir = TempDir::new("serve-engines");
    let mut cfg = ServerConfig::new(Listen::Tcp("127.0.0.1:0".into()), dir.path().join("store"));
    cfg.threads = 1;
    let handle = Server::start(cfg).expect("server starts");
    let mut client = Client::connect(handle.addr()).unwrap();

    let mut outputs = Vec::new();
    for (engine, name) in [(None, "vm"), (Some("tree"), "tree")] {
        let mut fields = vec![("source", Json::Str(testprogs::SQRTEST.into()))];
        if let Some(e) = engine {
            fields.push(("engine", Json::Str(e.into())));
        }
        let created = client.request(&op("create", fields)).unwrap();
        assert_eq!(created.get("engine").and_then(Json::as_str), Some(name));
        let sid = created.get("session").unwrap().clone();
        let traced = client
            .request(&op(
                "trace",
                vec![
                    ("session", sid),
                    ("inputs", Json::Array(vec![Json::Array(vec![])])),
                ],
            ))
            .unwrap();
        assert_eq!(traced.get("engine").and_then(Json::as_str), Some(name));
        outputs.push(traced.get("outputs").unwrap().to_string());
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(stat(&mut client, "compiles"), 2);
    assert_eq!(stat(&mut client, "programs"), 2);
    drop(client);
    handle.shutdown().unwrap();
}

#[test]
fn failing_creates_repeat_their_error_frame_and_compile_nothing() {
    const BAD: &str = "program; begin end.";
    let dir = TempDir::new("serve-bad-source");
    let mut cfg = ServerConfig::new(Listen::Tcp("127.0.0.1:0".into()), dir.path().join("store"));
    cfg.threads = 1;
    let handle = Server::start(cfg).expect("server starts");
    let ServerAddr::Tcp(addr) = handle.addr() else {
        unreachable!("listening on TCP")
    };
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let mut frame = |msg: Json| -> String {
        write_frame(&mut raw, &msg, MAX_FRAME).unwrap();
        read_frame(&mut raw, MAX_FRAME)
            .unwrap()
            .unwrap()
            .to_string()
    };
    let error = |message: String| {
        obj(vec![
            ("ok", Json::Bool(false)),
            ("error", Json::Str(message)),
        ])
        .to_string()
    };

    let compile_error = error(format!(
        "compile: {}",
        gadt_pascal::sema::compile(BAD).unwrap_err()
    ));
    let engine_error = error("unknown engine `jit` (vm | tree)".into());
    let create = |source: &str, engine: Option<&str>| {
        let mut fields = vec![("source", Json::Str(source.into()))];
        if let Some(e) = engine {
            fields.push(("engine", Json::Str(e.into())));
        }
        op("create", fields)
    };
    for _ in 0..3 {
        assert_eq!(frame(create(BAD, None)), compile_error);
        assert_eq!(frame(create(BAD, Some("tree"))), compile_error);
        // The source's errors come before the engine's.
        assert_eq!(frame(create(BAD, Some("jit"))), compile_error);
        assert_eq!(frame(create(testprogs::SQRTEST, Some("jit"))), engine_error);
    }
    let stats = frame(op("stats", vec![]));
    let stats = gadt_store::parse(&stats).unwrap();
    for (key, want) in [("sessions", 0), ("programs", 0), ("compiles", 0)] {
        assert_eq!(
            stats.get(key).and_then(Json::as_int),
            Some(want),
            "{key}: {stats}"
        );
    }
    handle.shutdown().unwrap();
}

/// Inputs that once overflowed a worker's 16 MiB stack and aborted the
/// whole server: a `create` whose source nests 12 000 parentheses, and a
/// 200 KB frame of 100 000 nested arrays. Each now gets an error frame,
/// and the one worker goes on answering.
#[test]
fn too_deep_sources_and_frames_get_error_frames() {
    let dir = TempDir::new("serve-too-deep");
    let mut cfg = ServerConfig::new(Listen::Tcp("127.0.0.1:0".into()), dir.path().join("store"));
    cfg.threads = 1;
    let handle = Server::start(cfg).expect("server starts");

    let mut client = Client::connect(handle.addr()).unwrap();
    let source = format!(
        "program deep; var x: integer; begin x := {}1{} end.",
        "(".repeat(12_000),
        ")".repeat(12_000)
    );
    let err = client
        .create_session(&source, &SessionOptions::default())
        .unwrap_err();
    assert!(err.to_string().contains("nesting deeper than"), "{err}");
    assert!(client.ping().unwrap());
    // The one worker serves one connection at a time.
    drop(client);

    let ServerAddr::Tcp(addr) = handle.addr() else {
        unreachable!("listening on TCP")
    };
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let payload = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    std::io::Write::write_all(&mut raw, &(payload.len() as u32).to_be_bytes()).unwrap();
    std::io::Write::write_all(&mut raw, payload.as_bytes()).unwrap();
    let reply = read_frame(&mut raw, MAX_FRAME).unwrap().unwrap();

    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let error = reply.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("nesting deeper than"), "{error}");

    drop(raw);

    assert!(Client::connect(handle.addr()).unwrap().ping().unwrap());
    handle.shutdown().unwrap();
}
