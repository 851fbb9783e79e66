//! The `gadt-serve` binary: a long-lived multi-session debugging
//! service over the pooled knowledge store.
//!
//! ```text
//! gadt-serve --listen tcp:127.0.0.1:7333 [--store DIR] [--shards N] [--threads N]
//! gadt-serve --listen unix:/tmp/gadt.sock ...
//! gadt-serve --selftest tcp:127.0.0.1:7333 [--shutdown]
//! ```
//!
//! Server mode runs until a client sends the `shutdown` op, then
//! compacts every shard and prints a report line. Selftest mode first
//! sends a frame and a source nested too deep to read, each on its own
//! connection, and requires an error frame for each and a pong after;
//! then it connects as a client and drives the paper's §8 session end to end —
//! compile, trace, debug, answer — judging each question against a
//! locally computed golden transcript, then runs the session again
//! unpooled on the now-warm server and requires the same slice and
//! journal, with no new compile or trace; with `--shutdown` it stops
//! the server afterwards (the CI serve tier's last step).

use gadt::debugger::DebugConfig;
use gadt::oracle::{ChainOracle, ReferenceOracle};
use gadt::session::{debug, prepare, run_traced};
use gadt_pascal::testprogs;
use gadt_serve::{AskReply, Client, Listen, Server, ServerConfig, SessionOptions};
use gadt_store::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: gadt-serve --listen tcp:HOST:PORT|unix:PATH [--store DIR] [--shards N] \
         [--threads N] [--compact-threshold N]\n       gadt-serve --selftest ADDR [--shutdown]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen = None;
    let mut selftest = None;
    let mut store_dir = std::path::PathBuf::from("gadt-store");
    let mut shards = 4usize;
    let mut threads = 4usize;
    let mut compact_threshold = 64usize;
    let mut shutdown_after = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => listen = it.next().cloned(),
            "--selftest" => selftest = it.next().cloned(),
            "--store" => match it.next() {
                Some(d) => store_dir = d.into(),
                None => return usage(),
            },
            "--shards" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => shards = n,
                None => return usage(),
            },
            "--threads" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => threads = n,
                None => return usage(),
            },
            "--compact-threshold" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => compact_threshold = n,
                None => return usage(),
            },
            "--shutdown" => shutdown_after = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    if let Some(addr) = selftest {
        return match run_selftest(&addr, shutdown_after) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gadt-serve selftest failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let Some(spec) = listen else { return usage() };
    let listen = match Listen::parse(&spec) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("gadt-serve: {e}");
            return ExitCode::from(2);
        }
    };
    let mut cfg = ServerConfig::new(listen, store_dir);
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.compact_threshold = compact_threshold;
    match Server::start(cfg) {
        Ok(handle) => {
            println!("gadt-serve listening on {}", handle.addr());
            match handle.wait() {
                Ok(report) => {
                    println!("gadt-serve clean shutdown: {report}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("gadt-serve shutdown error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("gadt-serve failed to start: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the §8 sqrtest session against a live server, answering each
/// question from a locally computed golden transcript (reference oracle
/// against the fixed program). Exercises compile → trace → ask/answer →
/// slice → journal → compact, and verifies the bug lands in
/// `decrement`. A second, unpooled session of the same source then runs
/// on the now-warm server: its `create` reuses the compiled program and
/// its `trace` the traced run, so the server's `compiles` and `traces`
/// must not move, and its slice and journal must equal the first
/// session's.
fn run_selftest(addr: &str, shutdown_after: bool) -> Result<(), String> {
    refuse_too_deep_inputs(addr)?;
    println!("selftest: too-deep frame and source refused with error frames, then a pong");
    let golden = golden_transcript()?;
    let mut client = Client::connect_to(addr).map_err(|e| e.to_string())?;
    if !client.ping().map_err(|e| e.to_string())? {
        return Err("ping did not pong".into());
    }
    let cold = drive_session(&mut client, &golden, true)?;
    println!(
        "selftest: session {} done after {} questions ({} answered here, {} slices): \
         bug in decrement",
        cold.sid, cold.questions, cold.answered, cold.slices
    );
    let (events, stmts, calls) = client
        .slice(cold.sid, 0, "decrement", 0)
        .map_err(|e| e.to_string())?;
    println!(
        "selftest: slice of decrement output 0: {events} events, {stmts} stmts, {calls} calls"
    );
    let fp = client
        .journal_fingerprint(cold.sid)
        .map_err(|e| e.to_string())?;
    if fp.is_empty() {
        return Err("journal fingerprint is empty".into());
    }

    let before = build_counts(&mut client)?;
    let warm = drive_session(&mut client, &golden, false)?;
    let after = build_counts(&mut client)?;
    if after != before {
        return Err(format!(
            "warm session {} compiled or traced again: (compiles, traces) went \
             {before:?} -> {after:?}",
            warm.sid
        ));
    }
    println!(
        "selftest: warm session {} shared the compiled program and traced run \
         (compiles {}, traces {})",
        warm.sid, after.0, after.1
    );
    let warm_slice = client
        .slice(warm.sid, 0, "decrement", 0)
        .map_err(|e| e.to_string())?;
    if warm_slice != (events, stmts, calls) {
        return Err(format!(
            "warm session's slice {warm_slice:?} differs from the cold session's"
        ));
    }
    if cold.answered as u64 == cold.questions {
        let warm_fp = client
            .journal_fingerprint(warm.sid)
            .map_err(|e| e.to_string())?;
        if warm_fp != fp {
            return Err(format!(
                "warm session {}'s journal differs from cold session {}'s",
                warm.sid, cold.sid
            ));
        }
        println!(
            "selftest: warm session {} journal matches cold session {}",
            warm.sid, cold.sid
        );
    } else {
        // Pooled answers journal differently from user answers.
        println!(
            "selftest: session {} rode the pooled store; journals not compared",
            cold.sid
        );
    }

    let compacted = client.compact().map_err(|e| e.to_string())?;
    println!("selftest: compacted {compacted} shards");
    if compacted == 0 {
        return Err("expected at least one shard compaction".into());
    }
    if shutdown_after {
        client.shutdown_server().map_err(|e| e.to_string())?;
        println!("selftest: server shutdown requested");
    }
    println!("selftest: OK");
    Ok(())
}

/// Sends the two inputs that once overflowed a worker's stack and
/// aborted the whole server: a 200 KB frame of 100 000 nested arrays,
/// and a `create` whose source nests 12 000 parentheses. Each goes on
/// its own connection (the server hangs up after a frame it cannot
/// read) and must get an error frame; the server must then answer a
/// ping.
fn refuse_too_deep_inputs(addr: &str) -> Result<(), String> {
    let connect = || Client::connect_to(addr).map_err(|e| e.to_string());
    let frame = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    let reply = connect()?
        .exchange_raw(frame.as_bytes())
        .map_err(|e| format!("too-deep frame: {e}"))?;
    if reply.get("ok").and_then(Json::as_bool) != Some(false) {
        return Err(format!("too-deep frame got {reply}"));
    }

    let source = format!(
        "program deep; var x: integer; begin x := {}1{} end.",
        "(".repeat(12_000),
        ")".repeat(12_000)
    );
    let mut client = connect()?;
    match client.create_session(&source, &SessionOptions::default()) {
        Err(e) if e.to_string().contains("nesting deeper than") => {}
        Err(e) => return Err(format!("too-deep source failed otherwise: {e}")),
        Ok(sid) => return Err(format!("too-deep source compiled as session {sid}")),
    }
    if !client.ping().map_err(|e| e.to_string())? {
        return Err("no pong after the too-deep inputs".into());
    }
    Ok(())
}

/// The server's `compiles` and `traces` counters.
fn build_counts(client: &mut Client) -> Result<(i64, i64), String> {
    let stats = client.stats().map_err(|e| e.to_string())?;
    let count = |key: &str| {
        stats
            .get(key)
            .and_then(Json::as_int)
            .ok_or_else(|| format!("stats lacks `{key}`: {stats}"))
    };
    Ok((count("compiles")?, count("traces")?))
}

/// The callback driver's §8 transcript, keyed by the rendered query.
/// The server must render queries identically (transparency mapping),
/// so lookups are exact.
fn golden_transcript() -> Result<BTreeMap<String, gadt::Verdict>, String> {
    let module = gadt_pascal::sema::compile(testprogs::SQRTEST).map_err(|e| e.to_string())?;
    let fixed = gadt_pascal::sema::compile(testprogs::SQRTEST_FIXED).map_err(|e| e.to_string())?;
    let prepared = prepare(&module).map_err(|e| e.to_string())?;
    let run = run_traced(&prepared, []).map_err(|e| e.to_string())?;
    let mut oracle = ChainOracle::new();
    oracle.push(ReferenceOracle::new(&fixed, []).map_err(|e| e.to_string())?);
    let outcome = debug(&prepared, &run, &mut oracle, DebugConfig::default());
    Ok(outcome
        .transcript
        .iter()
        .map(|t| (t.query.clone(), t.answer.clone()))
        .collect())
}

/// What [`drive_session`] reports of a finished session.
struct Driven {
    sid: u64,
    questions: u64,
    answered: usize,
    slices: u64,
}

/// One full §8 session: create, trace, pump to `done`. Any question the
/// pool cannot answer (or every question, without `pool`) is judged from
/// `golden`.
fn drive_session(
    client: &mut Client,
    golden: &BTreeMap<String, gadt::Verdict>,
    pool: bool,
) -> Result<Driven, String> {
    let opts = SessionOptions {
        pool: Some(pool),
        ..SessionOptions::default()
    };
    let sid = client
        .create_session(testprogs::SQRTEST, &opts)
        .map_err(|e| e.to_string())?;
    client.trace(sid, &[vec![]]).map_err(|e| e.to_string())?;
    let mut reply = client.ask(sid, 0).map_err(|e| e.to_string())?;
    let mut answered = 0usize;
    loop {
        match reply {
            AskReply::Done {
                localized,
                questions,
                slices,
                ..
            } => {
                if localized.as_deref() != Some("decrement") {
                    return Err(format!("expected bug in `decrement`, got {localized:?}"));
                }
                return Ok(Driven {
                    sid,
                    questions,
                    answered,
                    slices,
                });
            }
            AskReply::Question { ref query, .. } => {
                let verdict = golden
                    .get(query)
                    .cloned()
                    .ok_or_else(|| format!("server asked an unexpected question: {query}"))?;
                answered += 1;
                reply = client.answer(sid, &verdict).map_err(|e| e.to_string())?;
            }
        }
    }
}
