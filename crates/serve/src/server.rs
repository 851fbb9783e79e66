//! The long-lived debugging service: accept loop, worker pool, session
//! table, pooled knowledge, journal streaming, background compaction.
//!
//! One server multiplexes many concurrent debugging/testing sessions
//! against a single [`ShardedStore`]. The connection fabric is the
//! workspace's own [`BatchExecutor`]: the accept loop, the background
//! compactor, and every worker are items of one long-running batch, so
//! the server inherits the executor's 16 MiB stacks (deep subject
//! programs) without a second thread abstraction.
//!
//! Durability contract: an `answer` request is acknowledged only after
//! [`ShardedStore::record_answers`] has fsynced the append on its shard
//! — killing the server (`ServerHandle::kill`, or the process) loses no
//! acknowledged answer. Clean shutdown additionally compacts every
//! shard.
//!
//! Determinism contract: each session journals into its own untimed
//! [`Recorder`], so per-session journal fingerprints are invariant
//! under the server's thread count and under interleaving with other
//! sessions; store bytes are invariant for workloads whose per-unit
//! append sequences are fixed (appends are idempotent and canonical).

use crate::programs::{Program, ProgramTable, Run};
use crate::proto::{bool_field, int_field, read_frame, str_field, write_frame, MAX_FRAME};
use gadt::debugger::{DebugConfig, DebugResult, Strategy};
use gadt::handle::{DebugState, Verdict};
use gadt::stored::{answer_from_stored, answer_to_stored, STORED_SOURCE};
use gadt::strategy::AnswerProbe;
use gadt_analysis::slice_dynamic::dynamic_slice_output;
use gadt_exec::BatchExecutor;
use gadt_obs::Recorder;
use gadt_pascal::interp::Limits;
use gadt_pascal::name::Name;
use gadt_pascal::value::Value;
use gadt_store::{obj, value_from_json, value_to_json, Json, ShardedStore, StoredAnswer};
use gadt_trace::NodeKind;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Where the server listens.
#[derive(Debug, Clone)]
pub enum Listen {
    /// A TCP address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    Tcp(String),
    /// A unix-domain socket path (a stale socket file is replaced).
    Unix(PathBuf),
}

impl Listen {
    /// Parses `tcp:HOST:PORT` or `unix:PATH`.
    ///
    /// # Errors
    /// A description of the expected syntax.
    pub fn parse(spec: &str) -> Result<Listen, String> {
        if let Some(addr) = spec.strip_prefix("tcp:") {
            Ok(Listen::Tcp(addr.to_string()))
        } else if let Some(path) = spec.strip_prefix("unix:") {
            Ok(Listen::Unix(PathBuf::from(path)))
        } else {
            Err(format!(
                "listen spec `{spec}` must be tcp:HOST:PORT or unix:PATH"
            ))
        }
    }
}

/// Where a started server actually listens (TCP port resolved).
#[derive(Debug, Clone)]
pub enum ServerAddr {
    /// The bound TCP address.
    Tcp(std::net::SocketAddr),
    /// The unix socket path.
    Unix(PathBuf),
}

impl std::fmt::Display for ServerAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerAddr::Tcp(a) => write!(f, "tcp:{a}"),
            ServerAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// How often the background compactor checks the shards' WALs.
const COMPACT_INTERVAL: Duration = Duration::from_millis(25);

/// Server configuration; [`ServerConfig::new`] fills the defaults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub listen: Listen,
    /// Root directory of the sharded knowledge store.
    pub store_dir: PathBuf,
    /// Shard count for a fresh store (existing layouts win — see
    /// [`ShardedStore::open`]).
    pub shards: usize,
    /// Connection worker count (0 = 4).
    pub threads: usize,
    /// Background compaction threshold: shards whose WAL exceeds this
    /// many records are compacted on the next tick.
    pub compact_threshold: usize,
}

impl ServerConfig {
    /// A configuration with defaults: 4 shards, 4 workers, compaction
    /// over 64 WAL records every 25 ms.
    pub fn new(listen: Listen, store_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            listen,
            store_dir: store_dir.into(),
            shards: 4,
            threads: 4,
            compact_threshold: 64,
        }
    }
}

/// One live connection (either transport), readable and writable.
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

enum Acceptor {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Acceptor {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            Acceptor::Tcp(l) => l.accept().map(|(s, _)| {
                // A request/response protocol of small frames: without
                // TCP_NODELAY every round-trip stalls on Nagle vs.
                // delayed ACK.
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
            Acceptor::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

/// One parked debugging/testing session. It owns no program artifact:
/// the program and its runs are shared with every session of the same
/// source, inputs and limits, and `debug` borrows them on each request.
struct ServeSession {
    program: Arc<Program>,
    limits: Limits,
    pool: bool,
    config: DebugConfig,
    runs: Vec<Arc<Run>>,
    rec: Recorder,
    debug: Option<Debugging>,
}

/// A session's traversal over one of its runs.
struct Debugging {
    run: Arc<Run>,
    state: DebugState,
}

struct Subscriber {
    session: u64,
    stream: Stream,
    seen: usize,
}

struct ConnQueue {
    q: Mutex<VecDeque<Stream>>,
    cv: Condvar,
}

impl ConnQueue {
    fn push(&self, s: Stream) {
        self.q.lock().expect("queue poisoned").push_back(s);
        self.cv.notify_one();
    }
    fn pop(&self, timeout: Duration) -> Option<Stream> {
        let guard = self.q.lock().expect("queue poisoned");
        let (mut guard, _) = self
            .cv
            .wait_timeout_while(guard, timeout, |q| q.is_empty())
            .expect("queue poisoned");
        guard.pop_front()
    }
}

struct ServerState {
    store: ShardedStore,
    sessions: Mutex<BTreeMap<u64, Arc<Mutex<ServeSession>>>>,
    /// Compiled programs shared by the sessions of one source text.
    programs: ProgramTable,
    subscribers: Mutex<Vec<Subscriber>>,
    queue: ConnQueue,
    next_session: AtomicU64,
    requests: AtomicU64,
    sessions_created: AtomicU64,
    compactions: AtomicU64,
    stop: AtomicBool,
    cfg: ServerConfig,
}

/// What a finished server reports.
#[derive(Debug, Clone, Copy)]
pub struct ServerReport {
    /// Requests served (all ops, all connections).
    pub requests: u64,
    /// Sessions created.
    pub sessions: u64,
    /// Shard compactions performed (background ticks + final sweep).
    pub compactions: u64,
    /// Stored oracle answers at exit.
    pub answers: usize,
    /// WAL records left at exit (0 after a clean shutdown).
    pub wal_records: usize,
}

impl std::fmt::Display for ServerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} requests, {} sessions, {} compactions, {} answers, {} wal records",
            self.requests, self.sessions, self.compactions, self.answers, self.wal_records
        )
    }
}

/// A running server; dropping it stops the server (without the final
/// compaction — use [`ServerHandle::shutdown`] for the clean path).
pub struct ServerHandle {
    state: Arc<ServerState>,
    thread: Option<JoinHandle<()>>,
    addr: ServerAddr,
}

/// The server entry point.
pub struct Server;

impl Server {
    /// Binds the listener, opens (or recovers) the sharded store, and
    /// starts the accept/worker/compactor fabric on a background
    /// thread.
    ///
    /// # Errors
    /// Bind and store-recovery failures.
    pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
        let store = ShardedStore::open(&cfg.store_dir, cfg.shards)?;
        let (acceptor, addr) = match &cfg.listen {
            Listen::Tcp(spec) => {
                let l = TcpListener::bind(spec.as_str())?;
                let addr = ServerAddr::Tcp(l.local_addr()?);
                l.set_nonblocking(true)?;
                (Acceptor::Tcp(l), addr)
            }
            Listen::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                (Acceptor::Unix(l), ServerAddr::Unix(path.clone()))
            }
        };
        let workers = if cfg.threads == 0 { 4 } else { cfg.threads };
        let state = Arc::new(ServerState {
            store,
            sessions: Mutex::new(BTreeMap::new()),
            programs: ProgramTable::default(),
            subscribers: Mutex::new(Vec::new()),
            queue: ConnQueue {
                q: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
            },
            next_session: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            sessions_created: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            cfg,
        });
        let fabric = Arc::clone(&state);
        let thread = std::thread::Builder::new()
            .name("gadt-serve".into())
            .spawn(move || {
                // Items: 0 = accept loop, 1 = compactor, 2.. = workers.
                // Every item is a long-running loop, so the pool must
                // have exactly one thread per item.
                let pool = BatchExecutor::new(workers + 2);
                let items: Vec<usize> = (0..workers + 2).collect();
                pool.run(items, |_, item| match item {
                    0 => accept_loop(&fabric, &acceptor),
                    1 => compactor_loop(&fabric),
                    _ => worker_loop(&fabric),
                });
                // Close anything still parked: queued connections and
                // subscriber streams.
                fabric.queue.q.lock().expect("queue poisoned").clear();
                fabric
                    .subscribers
                    .lock()
                    .expect("subscribers poisoned")
                    .clear();
            })?;
        Ok(ServerHandle {
            state,
            thread: Some(thread),
            addr,
        })
    }
}

impl ServerHandle {
    /// Where the server listens (TCP port resolved).
    pub fn addr(&self) -> &ServerAddr {
        &self.addr
    }

    fn report(&self) -> ServerReport {
        ServerReport {
            requests: self.state.requests.load(Ordering::Relaxed),
            sessions: self.state.sessions_created.load(Ordering::Relaxed),
            compactions: self.state.compactions.load(Ordering::Relaxed),
            answers: self.state.store.answers_len(),
            wal_records: self.state.store.total_wal_records(),
        }
    }

    fn join(&mut self) {
        self.state.stop.store(true, Ordering::Relaxed);
        self.state.queue.cv.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Blocks until a client's `shutdown` request stops the server,
    /// then compacts every shard and reports. The CLI's main loop.
    ///
    /// # Errors
    /// Compaction I/O errors.
    pub fn wait(mut self) -> io::Result<ServerReport> {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.finish_clean()
    }

    /// Stops the server, compacts every shard, removes a unix socket
    /// file, and reports — the clean shutdown path.
    ///
    /// # Errors
    /// Compaction I/O errors.
    pub fn shutdown(mut self) -> io::Result<ServerReport> {
        self.join();
        self.finish_clean()
    }

    fn finish_clean(&mut self) -> io::Result<ServerReport> {
        let n = self.state.store.compact_all()?;
        self.state
            .compactions
            .fetch_add(n as u64, Ordering::Relaxed);
        if let ServerAddr::Unix(p) = &self.addr {
            let _ = std::fs::remove_file(p);
        }
        Ok(self.report())
    }

    /// Stops the server abruptly: no final compaction, the unix socket
    /// file (if any) is left behind — the crash-simulation path. Every
    /// *acknowledged* `answer` is already on disk.
    pub fn kill(mut self) -> ServerReport {
        self.join();
        self.report()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.join();
    }
}

fn accept_loop(state: &ServerState, acceptor: &Acceptor) {
    while !state.stop.load(Ordering::Relaxed) {
        match acceptor.accept() {
            Ok(stream) => state.queue.push(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    state.queue.cv.notify_all();
}

fn compactor_loop(state: &ServerState) {
    while !state.stop.load(Ordering::Relaxed) {
        std::thread::sleep(COMPACT_INTERVAL);
        if let Ok(n) = state.store.compact_if_needed(state.cfg.compact_threshold) {
            if n > 0 {
                state.compactions.fetch_add(n as u64, Ordering::Relaxed);
            }
        }
    }
}

fn worker_loop(state: &ServerState) {
    loop {
        if state.stop.load(Ordering::Relaxed) {
            return;
        }
        if let Some(stream) = state.queue.pop(Duration::from_millis(25)) {
            serve_connection(state, stream);
        }
    }
}

/// What the connection loop does after answering a request.
enum After {
    KeepOpen,
    /// The connection becomes a push-only journal subscriber.
    Subscribe(u64),
    Close,
}

fn serve_connection(state: &ServerState, mut stream: Stream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    loop {
        if state.stop.load(Ordering::Relaxed) {
            return;
        }
        let msg = match read_frame(&mut stream, MAX_FRAME) {
            Ok(None) => return,
            Ok(Some(msg)) => msg,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Malformed framing: tell the peer why, then hang up —
                // the stream offset is unrecoverable.
                let _ = write_frame(&mut stream, &err_resp(e.to_string()), MAX_FRAME);
                return;
            }
            Err(_) => return,
        };
        state.requests.fetch_add(1, Ordering::Relaxed);
        let (resp, after) = dispatch(state, &msg);
        if write_frame(&mut stream, &resp, MAX_FRAME).is_err() {
            return;
        }
        match after {
            After::KeepOpen => {}
            After::Close => return,
            After::Subscribe(sid) => {
                attach_subscriber(state, sid, stream);
                return;
            }
        }
    }
}

/// Registers `stream` as a journal subscriber of session `sid`: the
/// entire backlog is pushed first (under the session lock, so no event
/// can slip between backlog and registration), then the connection is
/// handed off to the session's writers — it no longer occupies a
/// worker.
fn attach_subscriber(state: &ServerState, sid: u64, mut stream: Stream) {
    let Some(sess) = session_of(state, sid) else {
        return;
    };
    let guard = sess.lock().expect("session poisoned");
    let snap = guard.rec.snapshot();
    let lines = snap.event_lines_from(0);
    for line in &lines {
        if write_frame(&mut stream, &event_frame(sid, line), MAX_FRAME).is_err() {
            return;
        }
    }
    state
        .subscribers
        .lock()
        .expect("subscribers poisoned")
        .push(Subscriber {
            session: sid,
            stream,
            seen: lines.len(),
        });
}

fn event_frame(sid: u64, line: &str) -> Json {
    obj(vec![
        ("session", Json::Int(sid as i64)),
        ("event", Json::Str(line.to_string())),
    ])
}

/// Pushes journal events accumulated since each subscriber's high-water
/// mark. Called with the session lock held by the mutating worker, so
/// subscribers observe every request's events exactly once, in order.
/// The journal is copied only when the session has a subscriber.
fn push_updates(state: &ServerState, sid: u64, sess: &ServeSession) {
    let mut subs = state.subscribers.lock().expect("subscribers poisoned");
    if !subs.iter().any(|s| s.session == sid) {
        return;
    }
    let snap = sess.rec.snapshot();
    let total = snap.len();
    subs.retain_mut(|s| {
        if s.session != sid {
            return true;
        }
        for line in snap.event_lines_from(s.seen) {
            if write_frame(&mut s.stream, &event_frame(sid, &line), MAX_FRAME).is_err() {
                return false;
            }
        }
        s.seen = total;
        true
    });
}

fn ok_resp(mut fields: Vec<(&str, Json)>) -> Json {
    fields.insert(0, ("ok", Json::Bool(true)));
    obj(fields)
}

fn err_resp(message: impl std::fmt::Display) -> Json {
    obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
    ])
}

fn session_of(state: &ServerState, sid: u64) -> Option<Arc<Mutex<ServeSession>>> {
    state
        .sessions
        .lock()
        .expect("sessions poisoned")
        .get(&sid)
        .cloned()
}

fn session_field(state: &ServerState, msg: &Json) -> Result<Arc<Mutex<ServeSession>>, Json> {
    let sid = int_field(msg, "session").ok_or_else(|| err_resp("missing `session` field"))?;
    session_of(state, sid as u64).ok_or_else(|| err_resp(format!("no session {sid}")))
}

fn dispatch(state: &ServerState, msg: &Json) -> (Json, After) {
    let Some(op) = str_field(msg, "op") else {
        return (err_resp("missing `op` field"), After::KeepOpen);
    };
    match op {
        "ping" => (ok_resp(vec![("pong", Json::Bool(true))]), After::KeepOpen),
        "create" => (op_create(state, msg), After::KeepOpen),
        "trace" => (with_session(state, msg, op_trace), After::KeepOpen),
        "ask" => (with_session(state, msg, op_ask), After::KeepOpen),
        "answer" => (with_session(state, msg, op_answer), After::KeepOpen),
        "slice" => (with_session(state, msg, op_slice), After::KeepOpen),
        "journal" => (with_session(state, msg, op_journal), After::KeepOpen),
        "knowledge" => (op_knowledge(state, msg), After::KeepOpen),
        "stats" => (op_stats(state), After::KeepOpen),
        "compact" => (op_compact(state), After::KeepOpen),
        "subscribe" => match session_field(state, msg) {
            Err(e) => (e, After::KeepOpen),
            Ok(sess) => {
                let sid = int_field(msg, "session").unwrap_or(0) as u64;
                let backlog = sess.lock().expect("session poisoned").rec.snapshot().len();
                (
                    ok_resp(vec![
                        ("subscribed", Json::Bool(true)),
                        ("backlog", Json::Int(backlog as i64)),
                    ]),
                    After::Subscribe(sid),
                )
            }
        },
        "shutdown" => {
            state.stop.store(true, Ordering::Relaxed);
            state.queue.cv.notify_all();
            (ok_resp(vec![("stopping", Json::Bool(true))]), After::Close)
        }
        other => (err_resp(format!("unknown op `{other}`")), After::KeepOpen),
    }
}

fn with_session(
    state: &ServerState,
    msg: &Json,
    f: impl FnOnce(&ServerState, &mut ServeSession, u64, &Json) -> Json,
) -> Json {
    match session_field(state, msg) {
        Err(e) => e,
        Ok(sess) => {
            let sid = int_field(msg, "session").unwrap_or(0) as u64;
            let mut guard = sess.lock().expect("session poisoned");
            let resp = f(state, &mut guard, sid, msg);
            push_updates(state, sid, &guard);
            resp
        }
    }
}

fn op_create(state: &ServerState, msg: &Json) -> Json {
    let Some(source) = str_field(msg, "source") else {
        return err_resp("missing `source` field");
    };
    let program = match state.programs.get_or_compile(source) {
        Ok(p) => p,
        Err(e) => return err_resp(e),
    };
    let mut rec = Recorder::untimed();
    rec.adopt(program.journal.clone(), None);
    let mut config = DebugConfig::default();
    if let Some(s) = str_field(msg, "strategy") {
        config.strategy = match Strategy::parse(s) {
            Some(st) => st,
            None => {
                return err_resp(format!(
                    "unknown strategy `{s}` (top_down | divide_and_query | dq_opt | knowledge_weighted)"
                ))
            }
        };
    }
    if let Some(b) = bool_field(msg, "slicing") {
        config.slicing = b;
    }
    let pool = bool_field(msg, "pool").unwrap_or(true);
    let mut limits = Limits::default();
    if let Some(n) = int_field(msg, "max_steps") {
        limits.max_steps = n.max(0) as u64;
    }
    if let Some(n) = int_field(msg, "max_depth") {
        limits.max_depth = n.max(0) as usize;
    }
    let sid = state.next_session.fetch_add(1, Ordering::Relaxed) + 1;
    state.sessions_created.fetch_add(1, Ordering::Relaxed);
    state.sessions.lock().expect("sessions poisoned").insert(
        sid,
        Arc::new(Mutex::new(ServeSession {
            program,
            limits,
            pool,
            config,
            runs: Vec::new(),
            rec,
            debug: None,
        })),
    );
    ok_resp(vec![
        ("session", Json::Int(sid as i64)),
        ("limits", limits_json(limits)),
    ])
}

fn limits_json(l: Limits) -> Json {
    obj(vec![
        ("max_steps", Json::Int(l.max_steps as i64)),
        ("max_depth", Json::Int(l.max_depth as i64)),
    ])
}

fn parse_inputs(msg: &Json) -> Result<Vec<Vec<Value>>, Json> {
    let Some(rows) = msg.get("inputs").and_then(Json::as_array) else {
        return Err(err_resp("missing `inputs` array"));
    };
    let mut inputs = Vec::with_capacity(rows.len());
    for row in rows {
        let Some(vals) = row.as_array() else {
            return Err(err_resp("each input must be an array of values"));
        };
        let mut parsed = Vec::with_capacity(vals.len());
        for v in vals {
            match value_from_json(v) {
                Some(val) => parsed.push(val),
                None => return Err(err_resp(format!("unsupported input value {v}"))),
            }
        }
        inputs.push(parsed);
    }
    Ok(inputs)
}

/// Traces each input row in order, sharing every run another session
/// of this program already holds. A failing row fails the whole request
/// and adds no run; the rows before it stay in the journal.
fn op_trace(state: &ServerState, sess: &mut ServeSession, _sid: u64, msg: &Json) -> Json {
    let inputs = match parse_inputs(msg) {
        Ok(i) => i,
        Err(e) => return e,
    };
    let span = gadt_obs::span!(&mut sess.rec, "trace", inputs = inputs.len());
    let mut runs = Vec::with_capacity(inputs.len());
    for input in inputs {
        match state
            .programs
            .get_or_trace(&sess.program, input, sess.limits)
        {
            Ok(run) => {
                sess.rec.adopt(run.journal.clone(), None);
                runs.push(run);
            }
            Err(e) => {
                sess.rec.exit(span);
                return err_resp(e);
            }
        }
    }
    sess.rec.exit(span);
    let outputs: Vec<Json> = runs
        .iter()
        .map(|r| Json::Str(r.traced.output.clone()))
        .collect();
    sess.runs.extend(runs);
    let limits = sess.runs.last().map_or(sess.limits, |r| r.traced.limits);
    ok_resp(vec![
        ("runs", Json::Int(sess.runs.len() as i64)),
        ("outputs", Json::Array(outputs)),
        ("limits", limits_json(limits)),
    ])
}

/// The pooled store as a traversal-strategy probe: knowledge-weighted
/// sessions weigh store-answerable nodes as free. Probing reads via
/// `ShardedStore::peek_answer`, so it never moves a shard's hit/miss
/// counters — only `drain_pooled` (which actually serves answers) does.
struct PooledProbe {
    store: ShardedStore,
}

impl gadt::strategy::AnswerProbe for PooledProbe {
    fn is_answered(&self, tree: &gadt_trace::ExecTree, node: gadt_trace::NodeId) -> bool {
        let n = tree.node(node);
        let ins: Vec<Value> = n.ins.iter().map(|(_, v)| v.clone()).collect();
        self.store.peek_answer(&n.name, &ins).is_some()
    }
}

/// The pending question's unit and In-values: the store's key for its
/// answer.
fn pending_key(sess: &ServeSession) -> Option<(String, Vec<Value>)> {
    let q = sess.debug.as_ref()?.state.next_question()?;
    Some((
        q.unit.clone(),
        q.ins.iter().map(|(_, v)| v.clone()).collect(),
    ))
}

/// Answers the pending question as `source`, journaling it into the
/// session's journal. The traversal borrows the shared program and run.
fn answer_pending(sess: &mut ServeSession, verdict: Verdict, source: &str) {
    let Some(debug) = sess.debug.as_mut() else {
        return;
    };
    let transformed = &sess.program.prepared.transformed;
    debug.state.answer(
        &transformed.module,
        &debug.run.traced.trace,
        Some(&transformed.mapping),
        verdict,
        source,
        &mut sess.rec,
    );
}

/// Answers every pending question the pooled store already knows,
/// journaling each exactly as the synchronous driver would.
fn drain_pooled(state: &ServerState, sess: &mut ServeSession) {
    if !sess.pool {
        return;
    }
    while let Some((unit, ins)) = pending_key(sess) {
        let Some(stored) = state.store.lookup_answer(&unit, &ins) else {
            return;
        };
        sess.rec.incr("store.hits");
        answer_pending(sess, answer_from_stored(stored), STORED_SOURCE);
    }
}

fn values_json(pairs: &[(Name, Value)]) -> Json {
    Json::Array(
        pairs
            .iter()
            .map(|(name, v)| {
                obj(vec![
                    ("name", Json::Str(name.to_string())),
                    ("value", value_to_json(v)),
                ])
            })
            .collect(),
    )
}

/// The shared reply of `ask` and `answer`: the next pending question,
/// or the finished verdict.
fn session_reply(sess: &ServeSession) -> Json {
    let Some(debug) = sess.debug.as_ref() else {
        return err_resp("session has no debug handle (call `ask` first)");
    };
    let state = &debug.state;
    if let Some(q) = state.next_question() {
        ok_resp(vec![
            ("done", Json::Bool(false)),
            ("asked", Json::Int(state.transcript().len() as i64)),
            (
                "question",
                obj(vec![
                    ("unit", Json::Str(q.unit.clone())),
                    ("query", Json::Str(q.query.clone())),
                    ("ins", values_json(&q.ins)),
                    ("outs", values_json(&q.outs)),
                ]),
            ),
        ])
    } else {
        let (localized, rendering) = match state.result() {
            Some(DebugResult::BugLocalized { unit, rendering }) => {
                (Json::Str(unit.clone()), Json::Str(rendering.clone()))
            }
            _ => (Json::Null, Json::Null),
        };
        ok_resp(vec![
            ("done", Json::Bool(true)),
            ("questions", Json::Int(state.transcript().len() as i64)),
            ("slices", Json::Int(state.slices_taken() as i64)),
            ("localized", localized),
            ("rendering", rendering),
        ])
    }
}

/// Starts the session's traversal over one of its runs on the first
/// `ask`; the only copy it makes is of the run's execution tree, which
/// slicing prunes.
fn op_ask(state: &ServerState, sess: &mut ServeSession, _sid: u64, msg: &Json) -> Json {
    if sess.debug.is_none() {
        let run_idx = int_field(msg, "run").unwrap_or(0).max(0) as usize;
        let Some(run) = sess.runs.get(run_idx) else {
            return err_resp(format!(
                "no traced run at index {run_idx} ({} available)",
                sess.runs.len()
            ));
        };
        let transformed = &sess.program.prepared.transformed;
        let (module, mapping) = (&transformed.module, Some(&transformed.mapping));
        let tree = &run.traced.tree;
        let mut debug = DebugState::new(module, mapping, tree.clone(), tree.root, sess.config);
        if sess.pool && sess.config.strategy == Strategy::KnowledgeWeighted {
            let probe: Box<dyn AnswerProbe> = Box::new(PooledProbe {
                store: state.store.clone(),
            });
            debug.attach_probe(module, mapping, probe);
        }
        sess.debug = Some(Debugging {
            run: Arc::clone(run),
            state: debug,
        });
    }
    drain_pooled(state, sess);
    session_reply(sess)
}

fn parse_verdict(msg: &Json) -> Result<Verdict, Json> {
    match str_field(msg, "verdict") {
        Some("yes") => Ok(Verdict::Correct),
        Some("no") => Ok(Verdict::Incorrect {
            wrong_output: int_field(msg, "wrong_output").map(|k| k.max(0) as usize),
        }),
        Some("dont_know") => Ok(Verdict::DontKnow),
        _ => Err(err_resp(
            "verdict must be \"yes\", \"no\" (with optional 0-based `wrong_output`), or \"dont_know\"",
        )),
    }
}

fn op_answer(state: &ServerState, sess: &mut ServeSession, _sid: u64, msg: &Json) -> Json {
    let verdict = match parse_verdict(msg) {
        Ok(v) => v,
        Err(e) => return e,
    };
    if sess.debug.is_none() {
        return err_resp("session has no debug handle (call `ask` first)");
    }
    let Some((unit, ins)) = pending_key(sess) else {
        return err_resp("session has no pending question");
    };
    answer_pending(sess, verdict.clone(), "user");
    // Durability before acknowledgement: the answer is on disk (fsynced
    // on its shard) before the client sees this response.
    if let Some(stored) = answer_to_stored(&verdict) {
        if let Err(e) = state
            .store
            .record_answers(&[(unit, ins, stored, "user".to_string())])
        {
            return err_resp(format!("store append failed: {e}"));
        }
        sess.rec.incr("store.appends");
    }
    drain_pooled(state, sess);
    session_reply(sess)
}

fn op_slice(_state: &ServerState, sess: &mut ServeSession, _sid: u64, msg: &Json) -> Json {
    let run_idx = int_field(msg, "run").unwrap_or(0).max(0) as usize;
    let Some(run) = sess.runs.get(run_idx) else {
        return err_resp(format!(
            "no traced run at index {run_idx} ({} available)",
            sess.runs.len()
        ));
    };
    let Some(unit) = str_field(msg, "unit") else {
        return err_resp("missing `unit` field");
    };
    let out_idx = int_field(msg, "output").unwrap_or(0).max(0) as usize;
    let module = &sess.program.prepared.transformed.module;
    let Some(node) = run.traced.tree.find_call(module, unit) else {
        return err_resp(format!("no call of `{unit}` in run {run_idx}"));
    };
    let NodeKind::Call { call, .. } = run.traced.tree.node(node).kind else {
        return err_resp(format!("`{unit}` is not a call node"));
    };
    let stats = dynamic_slice_output(module, &run.traced.trace, call, out_idx).stats();
    sess.rec.incr("serve.slices");
    // A client's request, not a debugging prune: the debugger's `slice`
    // events count `debug.slices`, these count `serve.slices`.
    gadt_obs::event!(
        &mut sess.rec,
        "slice_request",
        run = run_idx,
        unit = unit,
        output = out_idx,
        events = stats.events,
        stmts = stats.stmts,
        calls = stats.calls,
    );
    ok_resp(vec![
        ("events", Json::Int(stats.events as i64)),
        ("stmts", Json::Int(stats.stmts as i64)),
        ("calls", Json::Int(stats.calls as i64)),
    ])
}

fn op_journal(_state: &ServerState, sess: &mut ServeSession, _sid: u64, _msg: &Json) -> Json {
    let snap = sess.rec.snapshot();
    let counters: Vec<(String, u64)> = snap.counters.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let counters_json = Json::Object(
        counters
            .into_iter()
            .map(|(k, v)| (k, Json::Int(v as i64)))
            .collect(),
    );
    ok_resp(vec![
        ("events", Json::Int(snap.len() as i64)),
        ("fingerprint", Json::Str(snap.fingerprint())),
        ("counters", counters_json),
    ])
}

fn op_knowledge(state: &ServerState, msg: &Json) -> Json {
    let Some(unit) = str_field(msg, "unit") else {
        return err_resp("missing `unit` field");
    };
    let Some(raw) = msg.get("ins").and_then(Json::as_array) else {
        return err_resp("missing `ins` array");
    };
    let mut ins = Vec::with_capacity(raw.len());
    for v in raw {
        match value_from_json(v) {
            Some(val) => ins.push(val),
            None => return err_resp(format!("unsupported input value {v}")),
        }
    }
    match state.store.lookup_answer(unit, &ins) {
        None => ok_resp(vec![("found", Json::Bool(false))]),
        Some(StoredAnswer::Correct) => ok_resp(vec![
            ("found", Json::Bool(true)),
            ("verdict", Json::Str("yes".into())),
        ]),
        Some(StoredAnswer::Incorrect { wrong_output }) => {
            let mut fields = vec![
                ("found", Json::Bool(true)),
                ("verdict", Json::Str("no".into())),
            ];
            if let Some(k) = wrong_output {
                fields.push(("wrong_output", Json::Int(k as i64)));
            }
            ok_resp(fields)
        }
    }
}

fn op_stats(state: &ServerState) -> Json {
    ok_resp(vec![
        (
            "sessions",
            Json::Int(state.sessions.lock().expect("sessions poisoned").len() as i64),
        ),
        (
            "requests",
            Json::Int(state.requests.load(Ordering::Relaxed) as i64),
        ),
        ("programs", Json::Int(state.programs.live() as i64)),
        ("compiles", Json::Int(state.programs.compiles() as i64)),
        ("runs", Json::Int(state.programs.live_runs() as i64)),
        ("traces", Json::Int(state.programs.traces() as i64)),
        ("shards", Json::Int(state.store.shard_count() as i64)),
        ("answers", Json::Int(state.store.answers_len() as i64)),
        (
            "wal_records",
            Json::Int(state.store.total_wal_records() as i64),
        ),
        (
            "compactions",
            Json::Int(state.compactions.load(Ordering::Relaxed) as i64),
        ),
    ])
}

fn op_compact(state: &ServerState) -> Json {
    match state.store.compact_all() {
        Ok(n) => {
            state.compactions.fetch_add(n as u64, Ordering::Relaxed);
            ok_resp(vec![("compacted", Json::Int(n as i64))])
        }
        Err(e) => err_resp(format!("compaction failed: {e}")),
    }
}
